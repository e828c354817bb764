"""Static analysis of Datalog programs.

Implements the classical program-analysis toolkit:

* the **predicate dependency graph** (edges body-pred -> head-pred, marked
  positive/negative);
* **strongly connected components** (iterative Tarjan) — the recursive
  cliques that semi-naive evaluation iterates over;
* **stratification** for programs with negation: a level assignment such
  that negative edges strictly ascend, or a
  :class:`~repro.errors.StratificationError` when none exists (negation
  inside a recursive cycle);
* **recursion detection** and linearity classification (used by magic
  sets and by the benchmarks' workload taxonomy).
"""

from __future__ import annotations

from ..errors import DatalogError, StratificationError


class DependencyGraph:
    """Predicate-level dependency graph of a program.

    ``edges[p]`` is the set of predicates whose rules use ``p`` in their
    body... no: we store the conventional direction: an edge ``q -> p``
    when a rule with head ``p`` uses ``q`` in its body (``p`` *depends on*
    ``q``).  ``negative_edges`` holds the ``(q, p)`` pairs where some such
    use is negated.
    """

    __slots__ = ("predicates", "depends_on", "negative_pairs")

    def __init__(self, program):
        self.predicates = set()
        self.depends_on = {}
        self.negative_pairs = set()
        for rule in program:
            head = rule.head.predicate
            self.predicates.add(head)
            self.depends_on.setdefault(head, set())
            for pred, positive in rule.body_predicates():
                self.predicates.add(pred)
                self.depends_on.setdefault(pred, set())
                self.depends_on[head].add(pred)
                if not positive:
                    self.negative_pairs.add((pred, head))

    def dependencies(self, predicate):
        """Predicates that ``predicate``'s rules read (directly)."""
        return set(self.depends_on.get(predicate, ()))

    def uses_negatively(self, used, user):
        """Does some rule for ``user`` negate ``used``?"""
        return (used, user) in self.negative_pairs


def strongly_connected_components(graph):
    """SCCs of a ``{node: {successors}}`` adjacency map (iterative Tarjan).

    Returns a list of frozensets in reverse topological order (every
    component appears before the components that depend on it are *not*
    guaranteed — the classical Tarjan emission order is: a component is
    emitted only after all components it can reach).  Concretely: if a
    depends on b, b's component is emitted first.
    """
    index_counter = [0]
    stack = []
    lowlink = {}
    index = {}
    on_stack = set()
    result = []

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(frozenset(component))
    return result


def predicate_sccs(program):
    """SCCs of the program's predicate dependency graph.

    Emitted dependencies-first: evaluating the components in list order
    respects the program's data flow.
    """
    graph = DependencyGraph(program)
    return strongly_connected_components(graph.depends_on)


def is_recursive(program, predicate=None):
    """Is the program (or one predicate) recursive?

    A predicate is recursive when it belongs to a dependency cycle —
    either a component of size > 1 or a self-loop.
    """
    graph = DependencyGraph(program)
    components = strongly_connected_components(graph.depends_on)
    for component in components:
        cyclic = len(component) > 1 or any(
            node in graph.depends_on.get(node, ()) for node in component
        )
        if not cyclic:
            continue
        if predicate is None or predicate in component:
            return True
    return False


def check_stored_arities(program, stored):
    """Reject a program that uses a stored predicate with another arity.

    ``stored`` maps predicate names to the arity of their stored facts
    (None when unknown, as for an empty fact set).  Without this check
    the engines would silently truncate or widen the stored tuples.

    Raises:
        DatalogError: naming the predicate and both arities.
    """
    for predicate, arity in program.arities().items():
        held = stored.get(predicate)
        if held is not None and held != arity:
            raise DatalogError(
                "predicate %r has arity %d in the program but its stored "
                "facts have arity %d" % (predicate, arity, held)
            )


def is_linear(program, predicate):
    """Is every rule for ``predicate`` linear (at most one recursive call)?

    Linearity is with respect to the predicate's own SCC: a rule is linear
    when at most one body literal's predicate lies in the head's component.
    Linear programs admit the simplest magic-set and transitive-closure
    optimizations.
    """
    graph = DependencyGraph(program)
    components = strongly_connected_components(graph.depends_on)
    component_of = {}
    for component in components:
        for node in component:
            component_of[node] = component
    home = component_of.get(predicate, frozenset({predicate}))
    for rule in program.rules_for(predicate):
        recursive_calls = sum(
            1
            for pred, _ in rule.body_predicates()
            if component_of.get(pred) is home or pred == predicate and pred in home
        )
        if recursive_calls > 1:
            return False
    return True


def stratify(program):
    """Compute a stratification of the program.

    Returns:
        A list of strata; each stratum is a sorted list of predicate
        names.  Evaluating strata in order, with negation only ever
        applied to predicates of strictly earlier strata, yields the
        stratified (perfect-model) semantics.

    Raises:
        StratificationError: if some negative dependency lies inside a
            dependency cycle (the program is not stratifiable).
    """
    graph = DependencyGraph(program)
    level = {pred: 0 for pred in graph.predicates}
    n = max(len(graph.predicates), 1)
    # Bellman-Ford-style relaxation: level[head] >= level[body] for
    # positive edges, > for negative edges.  More than n*|edges| rounds of
    # change means a positive-weight (negative-edge) cycle.
    for iteration in range(n * n + 1):
        changed = False
        for head, body_preds in graph.depends_on.items():
            for pred in body_preds:
                required = level[pred] + (
                    1 if graph.uses_negatively(pred, head) else 0
                )
                if level[head] < required:
                    level[head] = required
                    changed = True
        if not changed:
            break
    else:
        pass
    if changed:
        raise StratificationError(
            "program is not stratifiable: negation through recursion"
        )
    if any(lvl > n for lvl in level.values()):
        raise StratificationError(
            "program is not stratifiable: negation through recursion"
        )
    strata = {}
    for pred, lvl in level.items():
        strata.setdefault(lvl, []).append(pred)
    return [sorted(strata[lvl]) for lvl in sorted(strata)]


def is_stratifiable(program):
    """True when :func:`stratify` succeeds."""
    try:
        stratify(program)
    except StratificationError:
        return False
    return True


def rules_by_stratum(program):
    """Group proper rules by the stratum of their head predicate.

    Returns:
        A list of rule lists, parallel to :func:`stratify`'s strata.
        Strata without rules (pure-EDB strata) yield empty lists.
    """
    strata = stratify(program)
    stratum_of = {}
    for i, preds in enumerate(strata):
        for pred in preds:
            stratum_of[pred] = i
    grouped = [[] for _ in strata]
    for rule in program.proper_rules():
        grouped[stratum_of[rule.head.predicate]].append(rule)
    return grouped
