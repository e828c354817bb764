"""Code generation: canonical logical plans to fused Python kernels.

Kernels are the one executor production runs; the materializing tree
walk (:func:`~repro.relational.algebra.evaluate`) stays as the
differential oracle.  This module walks a canonical plan in the
produce/consume style of HyPer-era query compilers (Neumann,
"Efficiently Compiling Efficient Query Plans for Modern Hardware",
VLDB 2011) and emits one specialized Python function per plan, with

* scan -> filter -> project chains fused into a single ``for`` loop,
* hash-join build and probe sides as separate fused loops,
* index access paths — an equality selection over a stored relation
  loops over one bucket of the relation's cached key index, and a join
  whose right input is a stored relation probes that index instead of
  building a table (both through
  :func:`~repro.plan.physical.stored_base_name`),
* dedup, set operations, and division as pipeline breakers,
* selection conditions and projection maps inlined as expressions
  whose attribute references are resolved to tuple indexes at codegen
  time (no per-tuple closure or dict lookup survives), and
* a template's parameter slots (:func:`~repro.plan.logical.parameterize`)
  unpacked from the kernel's parameter tuple into locals in its
  prologue, so one kernel serves every statement of a shape and the hot
  loops read a local, never the tuple.  An ``INSERT … VALUES``
  template builds its rows from those locals.

Every canonical plan compiles.  A semijoin or antijoin with no shared
attribute only tests whether its right side is empty (a stored right
side by its length, with no scan).  A node outside the canonical
operator set raises :class:`~repro.errors.PlanError`.

Hash tables a kernel builds leave out keys holding a NaN, as
:func:`~repro.relational.relation.build_key_index` does for a stored
relation's cached indexes: equality never pairs NaN.

Work accounting is batched: each kernel accumulates plain-int local
counters and flushes them to the caller's ``Tally``/``EngineStatistics``
once, in a ``finally`` block.  ``facts_scanned`` counts tuples read out
of stored and literal relations (index builds included),
``index_probes`` hash lookups, ``index_builds`` hash tables and key
indexes built, ``tuples_materialized`` tuples buffered by an operator
(hash-join build sides, dedup sets, set-operation right sides, the
result), and the Tally's ``peak_buffer`` the largest such buffer.

``compile_plan(..., instrumented=True)`` emits the *instrumented variant*
of a kernel: the same loops, with every counter kept per operator, the
rows each operator passes on, and a clock read around each pipeline.
EXPLAIN ANALYZE and the armed flight recorder run it
(:func:`~repro.plan.explain.explain_kernel`), so the report describes
the code production runs.

Comparisons inline as Python operators.  Equality never raises for a
value the front-ends produce; an ordered comparison of, say, an int
with a str raises :class:`TypeError`, where the algebra's contract
reads False for that one comparison.  So a condition holding an
ordered comparison computes its truth value inside a ``try:`` and, on
``TypeError``, re-tests the whole condition with guarded helpers that
apply the contract per comparison (under ``not`` and ``or`` too).
Rows of one type never reach a helper.
"""

from __future__ import annotations

import math
import operator
import time

from ..datalog.stats import EngineStatistics
from ..errors import AlgebraError, PlanError
from ..plan.physical import Tally, lookup_keys, stored_base_name, theta_keys
from ..relational import algebra as ra
from ..relational.relation import Relation


def _guarded(op):
    def compare(a, b):
        try:
            return op(a, b)
        except TypeError:
            return False

    return compare


_ORDERED_HELPERS = {
    "<": ("_lt", _guarded(operator.lt)),
    "<=": ("_le", _guarded(operator.le)),
    ">": ("_gt", _guarded(operator.gt)),
    ">=": ("_ge", _guarded(operator.ge)),
}

#: Python's spelling of each comparison operator.
_INLINE_OPS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}


def _has_ordered(condition):
    """True when ``condition`` holds an ordered comparison."""
    if isinstance(condition, ra.Comparison):
        return condition.op in _ORDERED_HELPERS
    if isinstance(condition, (ra.And, ra.Or)):
        return any(_has_ordered(part) for part in condition.parts)
    if isinstance(condition, ra.Not):
        return _has_ordered(condition.part)
    return False


_SIMPLE_CONST_TYPES = (int, float, str, bytes, bool, type(None))


def _unbound(slot):
    """The error for a template run without its parameter ``slot``."""
    return AlgebraError("unbound parameter $%d" % slot)

#: An operator's counters, in the order an instrumented kernel reports
#: them: rows passed on, then the Tally's counters.
COUNTERS = ("rows", "scanned", "probed", "built", "mat", "peak")


class CompiledKernel:
    """One plan, compiled: a closed-over function plus its metadata.

    ``operators`` is None on a production kernel.  On an instrumented
    variant it lists, per operator, ``(label, condition, children,
    pipelines)``: the EXPLAIN label (with one ``%s`` for ``condition``
    when that is not None), the indexes of its input operators, and the
    indexes of the pipelines it drives.  Operator 0 is the result.
    """

    __slots__ = (
        "fingerprint",
        "plan",
        "db_schema",
        "schema",
        "source",
        "pipelines",
        "ops",
        "operators",
        "hits",
        "_fn",
        "_variant",
    )

    def __init__(self, fn, plan, db_schema, source, pipelines, ops,
                 fingerprint, operators=None):
        self._fn = fn
        self.plan = plan
        self.db_schema = db_schema
        self.schema = plan.schema(db_schema)
        self.source = source
        self.pipelines = pipelines
        self.ops = ops
        self.operators = operators
        self.fingerprint = fingerprint
        self.hits = 0
        self._variant = None

    def execute(self, db, stats=None, params=()):
        """Run the kernel over ``db``; return ``(relation, tally)``.

        Relations are fetched from ``db`` by name at call time, so a
        kernel stays valid across content changes under the same schema
        token, and ``params`` are the values of the template's parameter
        slots.
        """
        tally = Tally(stats if stats is not None else EngineStatistics())
        out = self._fn(db, tally, params)
        return Relation(self.schema, out, validate=False), tally

    def instrumented(self):
        """This kernel's instrumented variant, compiled on first use and
        kept for the kernel's lifetime (an instrumented kernel is its
        own variant)."""
        if self.operators is not None:
            return self
        if self._variant is None:
            self._variant = compile_plan(
                self.plan, self.db_schema, self.fingerprint,
                instrumented=True,
            )
        return self._variant

    def profile(self, db, params=()):
        """Run an instrumented kernel: ``(relation, counts, times)``.

        ``counts[i]`` holds operator ``i``'s :data:`COUNTERS` and
        ``times[j]`` the wall-clock seconds of pipeline ``j``.
        """
        out, counts, times = self._fn(db, params)
        return Relation(self.schema, out, validate=False), counts, times

    def __repr__(self):
        return "CompiledKernel(%s, %d pipelines, %d ops)" % (
            self.fingerprint,
            self.pipelines,
            self.ops,
        )


class _Op:
    """One operator as the kernel runs it (see
    :attr:`CompiledKernel.operators`)."""

    __slots__ = ("index", "node", "label", "condition", "children",
                 "segments")

    def __init__(self, index, node, label=None):
        self.index = index
        self.node = node
        self.label = label
        self.condition = None
        self.children = []  # (side, _Op): 0 left or only input, 1 right
        self.segments = []


class _KernelBuilder:
    """Produce/consume walker that emits the kernel body.

    ``produce(node, consume)`` emits the loop(s) that enumerate
    ``node``'s tuples; ``consume(var)`` is called at the innermost point
    with the name of the variable holding the current tuple and emits
    the downstream code.  Streaming operators extend the current loop
    body; pipeline breakers drain their input into a local structure
    first.  Every ``produce`` call happens outside any loop, so the
    pipelines run one after another and never nest.

    Each operator charges its work through :meth:`counter`: one set of
    kernel-wide locals in a production kernel, one set per operator in
    the instrumented variant.
    """

    def __init__(self, db_schema, instrumented=False):
        self.db_schema = db_schema
        self.instrumented = instrumented
        self.lines = []
        self.depth = 1 if instrumented else 2  # in `def kernel` (`try:`)
        self.env = {"_clock": time.perf_counter} if instrumented else {}
        self.slots = set()
        self.pipelines = 0
        self.operators = [_Op(0, None, "Result")]
        self.locals = set()
        self.segments = 0
        self._producing = [self.operators[0]]
        self._n = 0

    # -- emission helpers ------------------------------------------------

    def fresh(self, prefix):
        self._n += 1
        return "_%s%d" % (prefix, self._n)

    def emit(self, line):
        self.lines.append("    " * self.depth + line)

    def bind(self, prefix, value):
        name = self.fresh(prefix)
        self.env[name] = value
        return name

    def const_expr(self, value):
        if isinstance(value, float) and not math.isfinite(value):
            return self.bind("c", value)
        if isinstance(value, _SIMPLE_CONST_TYPES):
            return repr(value)
        return self.bind("c", value)

    def param_expr(self, param):
        """The prologue local holding a parameter slot's value."""
        self.slots.add(param.slot)
        return "_p%d" % param.slot

    def value_expr(self, value):
        """Source for a literal relation's value or parameter slot."""
        if isinstance(value, ra.Param):
            return self.param_expr(value)
        return self.const_expr(value)

    def tuple_expr(self, var, positions, arity=None):
        """Source for ``tuple(var[p] for p in positions)``, specialized.

        When ``positions`` is the identity over a tuple of ``arity``
        fields the variable itself is returned (no rebuild).
        """
        positions = list(positions)
        if arity is not None and positions == list(range(arity)):
            return var
        if not positions:
            return "()"
        return "(%s,)" % ", ".join("%s[%d]" % (var, p) for p in positions)

    # -- accounting ------------------------------------------------------

    def counter(self, op, field):
        """The local that accumulates ``op``'s ``field`` counter (one of
        :data:`COUNTERS`)."""
        if not self.instrumented:
            return "_" + field
        name = "_%s_%d" % (field, op.index)
        self.locals.add(name)
        return name

    def charge(self, op, field, amount="1"):
        self.emit("%s += %s" % (self.counter(op, field), amount))

    def peak(self, op, size):
        """Emit ``size`` (an expression) as a peak-buffer candidate."""
        name = self.counter(op, "peak")
        self.emit("if %s > %s: %s = %s" % (size, name, name, size))

    def begin_segment(self, op):
        """Start timing a pipeline ``op`` drives (instrumented only)."""
        if not self.instrumented:
            return None
        segment = self.segments
        self.segments += 1
        op.segments.append(segment)
        self.emit("_t%d = _clock()" % segment)
        return segment

    def end_segment(self, segment):
        if segment is not None:
            self.emit("_el%d = _clock() - _t%d" % (segment, segment))

    # -- conditions ------------------------------------------------------

    def operand_expr(self, operand, schema, var):
        if isinstance(operand, ra.Attr):
            return "%s[%d]" % (var, schema.position(operand.name))
        if isinstance(operand, ra.Const):
            return self.const_expr(operand.value)
        if isinstance(operand, ra.Param):
            return self.param_expr(operand)
        raise PlanError("no kernel operand for %r" % (operand,))

    def cond_expr(self, condition, schema, var, guarded=False):
        """Source for ``condition`` over the tuple in ``var``.

        ``guarded`` routes ordered comparisons through the
        ``TypeError -> False`` helpers; otherwise every comparison is
        its bare operator.
        """
        if isinstance(condition, ra.Comparison):
            left = self.operand_expr(condition.left, schema, var)
            right = self.operand_expr(condition.right, schema, var)
            op = _INLINE_OPS.get(condition.op)
            if op is None:
                raise PlanError(
                    "no kernel comparison %r" % (condition.op,)
                )
            helper = _ORDERED_HELPERS.get(condition.op)
            if guarded and helper is not None:
                name, fn = helper
                self.env[name] = fn
                return "%s(%s, %s)" % (name, left, right)
            return "(%s %s %s)" % (left, op, right)
        if isinstance(condition, (ra.And, ra.Or)):
            # Both constructors reject an empty part list.
            joiner = " and " if isinstance(condition, ra.And) else " or "
            return "(%s)" % joiner.join(
                self.cond_expr(p, schema, var, guarded)
                for p in condition.parts
            )
        if isinstance(condition, ra.Not):
            return "(not %s)" % self.cond_expr(
                condition.part, schema, var, guarded
            )
        raise PlanError("no kernel condition for %r" % (condition,))

    def emit_filter(self, condition, schema, var):
        """Emit ``if <condition>:`` over ``var`` and indent into it.

        A condition with an ordered comparison first assigns its inline
        truth value inside a ``try:``; on ``TypeError`` it re-tests the
        whole condition with the guarded helpers.  The consuming code
        stays outside the ``try``, so its own errors are never caught.
        """
        test = self.cond_expr(condition, schema, var)
        if _has_ordered(condition):
            flag = self.fresh("ok")
            self.emit("try:")
            self.emit("    %s = %s" % (flag, test))
            self.emit("except TypeError:")
            self.emit(
                "    %s = %s"
                % (flag, self.cond_expr(condition, schema, var, True))
            )
            test = flag
        self.emit("if %s:" % test)
        self.depth += 1

    # -- scans and index builds ------------------------------------------

    def loop(self, op, rows, consume):
        """Drive one pipeline: ``for`` each tuple of the ``rows``
        expression, consume it."""
        self.pipelines += 1
        segment = self.begin_segment(op)
        t = self.fresh("t")
        self.emit("for %s in %s:" % (t, rows))
        self.depth += 1
        consume(t)
        self.depth -= 1
        self.end_segment(segment)

    def literal_rows(self, relation):
        """Source for a literal relation's rows: the bound relation's
        tuples, or for a template's ``VALUES`` rows a tuple built from
        the parameter locals."""
        if not any(
            isinstance(value, ra.Param)
            for row in relation.tuples
            for value in row
        ):
            return "%s.tuples" % self.bind("lit", relation)
        rows = self.fresh("rows")
        self.emit(
            "%s = (%s)"
            % (
                rows,
                "".join(
                    "(%s,), " % ", ".join(self.value_expr(v) for v in row)
                    for row in relation.tuples
                ),
            )
        )
        return rows

    def base_index(self, name, positions, op):
        """Probe handle over a base relation's cached key index: the
        build (one index build plus a full scan) is charged only when
        the pattern is not already cached on the relation."""
        rel = self.fresh("rel")
        self.emit("%s = _db[%r]" % (rel, name))
        segment = self.begin_segment(op)
        self.emit("if not %s.has_key_index(%r):" % (rel, tuple(positions)))
        self.depth += 1
        self.charge(op, "built")
        self.charge(op, "scanned", "len(%s)" % rel)
        self.depth -= 1
        idx = self.fresh("idx")
        self.emit("%s = %s._key_index(%r)" % (idx, rel, tuple(positions)))
        self.end_segment(segment)
        return idx

    def index_lookup(self, name, lookup, schema, consume, op):
        """Drive a loop over one index bucket: the index build on first
        use, one probe, and the bucket's tuples as scanned."""
        positions, key, residual = lookup
        idx = self.base_index(name, positions, op)
        bucket = self.fresh("bkt")
        key_expr = "(%s,)" % ", ".join(
            self.param_expr(part)
            if isinstance(part, ra.Param)
            else self.bind("c", part)
            for part in key
        )
        self.charge(op, "probed")
        self.emit("%s = %s.get(%s, ())" % (bucket, idx, key_expr))
        self.charge(op, "scanned", "len(%s)" % bucket)

        def filtered(var):
            self.emit_filter(residual, schema, var)
            consume(var)
            self.depth -= 1

        self.loop(op, bucket, consume if residual is None else filtered)

    def built_index(self, node, positions, op):
        """Drain ``node`` once into a fresh hash table (a pipeline
        breaker): one index build, every drained tuple materializes, and
        the table's final size is a peak-buffer candidate.  A key
        holding a NaN stays out of the table."""
        schema = node.schema(self.db_schema)
        idx = self.fresh("idx")
        cnt = self.fresh("cnt")
        self.emit("%s = {}" % idx)
        self.emit("%s = 0" % cnt)
        self.charge(op, "built")

        def build(var):
            key = self.tuple_expr(var, positions, len(schema.attributes))
            self.emit("%s += 1" % cnt)
            if positions:
                self.emit(
                    "if %s:"
                    % " and ".join(
                        "%s[%d] == %s[%d]" % (var, p, var, p)
                        for p in positions
                    )
                )
                self.depth += 1
            self.emit("%s.setdefault(%s, []).append(%s)" % (idx, key, var))
            if positions:
                self.depth -= 1

        self.produce(node, build)
        self.charge(op, "mat", cnt)
        self.peak(op, cnt)
        return idx

    # -- operators -------------------------------------------------------

    def produce(self, node, consume):
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise PlanError(
                "no kernel operator for %r (canonicalize first)" % (node,)
            )
        op = _Op(len(self.operators), node)
        self.operators.append(op)
        parent = self._producing[-1]
        right = getattr(parent.node, "right", None)
        side = int(node is right and node is not parent.node.left)
        parent.children.append((side, op))
        if self.instrumented:
            rows = self.counter(op, "rows")
            downstream = consume

            def consume(var):
                self.emit("%s += 1" % rows)
                downstream(var)

        self._producing.append(op)
        method(self, node, consume, op)
        self._producing.pop()

    def _produce_scan(self, node, consume, op):
        if isinstance(node, ra.RelationRef):
            op.label = "Scan(%s)" % node.name
            rel = self.fresh("rel")
            self.emit("%s = _db[%r]" % (rel, node.name))
            rows = "%s.tuples" % rel
        else:
            op.label = "Scan(%s)" % node.relation.schema.name
            rows = self.literal_rows(node.relation)
        self.charge(op, "scanned", "len(%s)" % rows)
        self.loop(op, rows, consume)

    def _produce_selection(self, node, consume, op):
        schema = node.child.schema(self.db_schema)
        op.condition = node.condition
        name = stored_base_name(node.child)
        if name is not None:
            lookup = lookup_keys(node.condition, schema)
            if lookup is not None:
                op.label = "IndexLookup(%s)[%%s]" % name
                self.index_lookup(name, lookup, schema, consume, op)
                return
        op.label = "Select[%s]"

        def filtered(var):
            self.emit_filter(node.condition, schema, var)
            consume(var)
            self.depth -= 1

        self.produce(node.child, filtered)

    def _produce_projection(self, node, consume, op):
        op.label = "Project[%s]" % ",".join(node.attributes)
        child_schema = node.child.schema(self.db_schema)
        positions = [child_schema.position(a) for a in node.attributes]
        seen = self.fresh("seen")
        self.emit("%s = set()" % seen)

        def project(var):
            expr = self.tuple_expr(
                var, positions, len(child_schema.attributes)
            )
            if expr == var:
                out = var
            else:
                out = self.fresh("t")
                self.emit("%s = %s" % (out, expr))
            self.emit("if %s not in %s:" % (out, seen))
            self.depth += 1
            self.emit("%s.add(%s)" % (seen, out))
            consume(out)
            self.depth -= 1

        self.produce(node.child, project)
        self.charge(op, "mat", "len(%s)" % seen)
        self.peak(op, "len(%s)" % seen)

    def _produce_rename(self, node, consume, op):
        # Pure schema change: attribute order is preserved, so every
        # downstream position computed against the renamed schema is
        # valid against the child's tuples unchanged.
        op.label = "RenameOp"
        self.produce(node.child, consume)

    def _produce_natural_join(self, node, consume, op):
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        # No shared attributes degenerates to a product through the
        # single empty-key bucket, like Relation.natural_join.
        shared = left_schema.shared_attributes(right_schema)
        right_positions = tuple(right_schema.position(a) for a in shared)
        name = stored_base_name(node.right)
        if name is not None:
            idx = self.base_index(name, right_positions, op)
        else:
            idx = self.built_index(node.right, right_positions, op)
        op.label = "HashJoin:%s[%s]" % (
            "built" if name is None else "base", ",".join(shared),
        )
        left_positions = [left_schema.position(a) for a in shared]
        extra_positions = [
            right_schema.position(a)
            for a in right_schema.attributes
            if a not in left_schema
        ]

        def probe(svar):
            self.charge(op, "probed")
            u = self.fresh("u")
            self.emit(
                "for %s in %s.get(%s, ()):"
                % (u, idx, self.tuple_expr(svar, left_positions))
            )
            self.depth += 1
            if extra_positions:
                out = self.fresh("t")
                self.emit(
                    "%s = %s + %s"
                    % (out, svar, self.tuple_expr(u, extra_positions))
                )
                consume(out)
            else:
                consume(svar)
            self.depth -= 1

        self.produce(node.left, probe)

    def _produce_theta_join(self, node, consume, op):
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        out_schema = left_schema.concat(right_schema)
        left_positions, right_positions, residual = theta_keys(
            node.condition, left_schema, right_schema
        )
        op.condition = node.condition

        def joined(svar, tvar):
            out = self.fresh("t")
            self.emit("%s = %s + %s" % (out, svar, tvar))
            if residual is not None:
                self.emit_filter(residual, out_schema, out)
                consume(out)
                self.depth -= 1
            else:
                consume(out)

        if right_positions:
            name = stored_base_name(node.right)
            if name is not None:
                op.label = "ThetaJoin:index[%s]"
                idx = self.base_index(name, right_positions, op)
            else:
                op.label = "ThetaJoin:hash[%s]"
                idx = self.built_index(node.right, right_positions, op)

            def probe(svar):
                self.charge(op, "probed")
                u = self.fresh("u")
                self.emit(
                    "for %s in %s.get(%s, ()):"
                    % (u, idx, self.tuple_expr(svar, left_positions))
                )
                self.depth += 1
                joined(svar, u)
                self.depth -= 1

            self.produce(node.left, probe)
        else:
            op.label = "ThetaJoin:loop[%s]"
            buf = self._buffer_list(node.right, op)

            def loop(svar):
                u = self.fresh("u")
                self.emit("for %s in %s:" % (u, buf))
                self.depth += 1
                joined(svar, u)
                self.depth -= 1

            self.produce(node.left, loop)

    def _buffer_list(self, node, op):
        """Drain ``node`` into a list (theta-loop/product right side):
        every drained tuple materializes and the list's final length is
        a peak candidate."""
        buf = self.fresh("buf")
        self.emit("%s = []" % buf)
        self.produce(node, lambda var: self.emit("%s.append(%s)" % (buf, var)))
        self.charge(op, "mat", "len(%s)" % buf)
        self.peak(op, "len(%s)" % buf)
        return buf

    def _produce_product(self, node, consume, op):
        op.label = "ProductOp"
        buf = self._buffer_list(node.right, op)

        def loop(svar):
            u = self.fresh("u")
            self.emit("for %s in %s:" % (u, buf))
            self.depth += 1
            out = self.fresh("t")
            self.emit("%s = %s + %s" % (out, svar, u))
            consume(out)
            self.depth -= 1

        self.produce(node.left, loop)

    def _produce_union(self, node, consume, op):
        op.label = "UnionOp"
        seen = self.fresh("seen")
        self.emit("%s = set()" % seen)

        def dedup(var):
            self.emit("if %s not in %s:" % (var, seen))
            self.depth += 1
            self.emit("%s.add(%s)" % (seen, var))
            consume(var)
            self.depth -= 1

        self.produce(node.left, dedup)
        self.produce(node.right, dedup)
        self.charge(op, "mat", "len(%s)" % seen)
        self.peak(op, "len(%s)" % seen)

    def _collect_set(self, node, op):
        """Drain ``node`` into a set (set-operation right side, division
        inputs): every drained tuple, duplicates included, materializes,
        and the set's final size is a peak candidate."""
        members = self.fresh("members")
        cnt = self.fresh("cnt")
        self.emit("%s = set()" % members)
        self.emit("%s = 0" % cnt)

        def collect(var):
            self.emit("%s.add(%s)" % (members, var))
            self.emit("%s += 1" % cnt)

        self.produce(node, collect)
        self.charge(op, "mat", cnt)
        self.peak(op, "len(%s)" % members)
        return members

    def _produce_difference(self, node, consume, op):
        op.label = "Difference"
        self._produce_membership(node, consume, op, "not in")

    def _produce_intersection(self, node, consume, op):
        op.label = "Intersection"
        self._produce_membership(node, consume, op, "in")

    def _produce_membership(self, node, consume, op, test):
        members = self._collect_set(node.right, op)

        def probe(var):
            self.charge(op, "probed")
            self.emit("if %s %s %s:" % (var, test, members))
            self.depth += 1
            consume(var)
            self.depth -= 1

        self.produce(node.left, probe)

    def _produce_semijoin(self, node, consume, op):
        negated = isinstance(node, ra.Antijoin)
        op.label = "Antijoin" if negated else "Semijoin"
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        shared = left_schema.shared_attributes(right_schema)
        if not shared:
            # No shared attribute: the right side's emptiness decides,
            # like Relation.semijoin/antijoin.
            flag = self.fresh("any")
            name = stored_base_name(node.right)
            if name is not None:
                self.emit("%s = len(_db[%r]) > 0" % (flag, name))
            else:
                self.emit("%s = False" % flag)
                self.produce(
                    node.right, lambda var: self.emit("%s = True" % flag)
                )
            self.emit("if %s%s:" % ("not " if negated else "", flag))
            self.depth += 1
            self.produce(node.left, consume)
            self.depth -= 1
            return
        positions = tuple(right_schema.position(a) for a in shared)
        if isinstance(node.right, ra.RelationRef):
            idx = self.base_index(node.right.name, positions, op)
        else:
            idx = self.built_index(node.right, positions, op)
        left_positions = [left_schema.position(a) for a in shared]
        test = "not in" if negated else "in"

        def probe(var):
            self.charge(op, "probed")
            self.emit(
                "if %s %s %s:"
                % (self.tuple_expr(var, left_positions), test, idx)
            )
            self.depth += 1
            consume(var)
            self.depth -= 1

        self.produce(node.left, probe)

    def _produce_division(self, node, consume, op):
        op.label = "DivisionOp"
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        left_set = self._collect_set(node.left, op)
        right_set = self._collect_set(node.right, op)
        self.env["_Relation"] = Relation
        ls = self.bind("schema", left_schema)
        rs = self.bind("schema", right_schema)
        self.loop(
            op,
            "_Relation(%s, %s, validate=False).divide(_Relation(%s, %s, "
            "validate=False)).tuples" % (ls, left_set, rs, right_set),
            consume,
        )

    _DISPATCH = {
        ra.RelationRef: _produce_scan,
        ra.ConstantRelation: _produce_scan,
        ra.Selection: _produce_selection,
        ra.Projection: _produce_projection,
        ra.Rename: _produce_rename,
        ra.NaturalJoin: _produce_natural_join,
        ra.ThetaJoin: _produce_theta_join,
        ra.Product: _produce_product,
        ra.Union: _produce_union,
        ra.Difference: _produce_difference,
        ra.Intersection: _produce_intersection,
        ra.Semijoin: _produce_semijoin,
        ra.Antijoin: _produce_semijoin,
        ra.Division: _produce_division,
    }


def compile_plan(plan, db_schema, fingerprint="adhoc", instrumented=False):
    """Compile a canonical plan into a :class:`CompiledKernel`.

    Args:
        plan: a canonical algebra expression (``canonicalize`` first),
            or a template: its parameter slots are read from the tuple
            passed to :meth:`CompiledKernel.execute`.
        db_schema: the database schema the plan was canonicalized
            against; attribute positions are resolved against it.
        fingerprint: display name for the kernel (the cache passes the
            12-hex plan fingerprint; it also names the pseudo-file the
            source compiles under, so tracebacks identify the kernel).
        instrumented: emit the instrumented variant instead (run it with
            :meth:`CompiledKernel.profile`).

    Returns:
        The compiled kernel.

    Raises:
        PlanError: when the plan holds a node outside the canonical
            operator set.
    """
    builder = _KernelBuilder(db_schema, instrumented)
    result = builder.operators[0]
    builder.produce(plan, lambda var: builder.emit("_out.add(%s)" % var))
    builder.charge(result, "mat", "len(_out)")
    builder.peak(result, "len(_out)")
    prologue = []
    if builder.slots:
        prologue = ["    try:"]
        prologue += [
            "        _p%d = _params[%d]" % (slot, slot)
            for slot in sorted(builder.slots)
        ]
        prologue += [
            "    except IndexError:",
            "        raise _unbound(len(_params)) from None",
        ]
        builder.env["_unbound"] = _unbound
    if instrumented:
        lines = ["def kernel(_db, _params):"] + prologue
        lines += ["    %s = 0" % name for name in sorted(builder.locals)]
        lines += ["    _el%d = 0.0" % i for i in range(builder.segments)]
        lines.append("    _out = set()")
        lines.extend(builder.lines)
        counts = []
        for op in builder.operators:
            names = ["_%s_%d" % (field, op.index) for field in COUNTERS]
            counts.append(
                [name if name in builder.locals else "0" for name in names]
            )
        counts[0][0] = "len(_out)"  # the result's rows
        lines.append(
            "    return _out, (%s), (%s)"
            % (
                "".join("(%s), " % ", ".join(c) for c in counts),
                "".join("_el%d, " % i for i in range(builder.segments)),
            )
        )
    else:
        lines = ["def kernel(_db, _tally, _params):"] + prologue
        lines += [
            "    _scanned = 0",
            "    _probed = 0",
            "    _built = 0",
            "    _mat = 0",
            "    _peak = 0",
            "    _out = set()",
            "    try:",
        ]
        lines.extend(builder.lines)
        lines += [
            "    finally:",
            "        _stats = _tally.stats",
            "        _stats.facts_scanned += _scanned",
            "        _stats.index_probes += _probed",
            "        _stats.index_builds += _built",
            "        _stats.tuples_materialized += _mat",
            "        if _peak > _tally.peak_buffer:",
            "            _tally.peak_buffer = _peak",
            "    return _out",
        ]
    source = "\n".join(lines) + "\n"
    namespace = dict(builder.env)
    exec(  # noqa: S102 - the source is generated here, not user input
        compile(source, "<kernel %s>" % fingerprint, "exec"), namespace
    )
    operators = None
    if instrumented:
        operators = tuple(
            (
                op.label,
                op.condition,
                tuple(
                    child.index
                    for _side, child in sorted(
                        op.children, key=lambda pair: pair[0]
                    )
                ),
                tuple(op.segments),
            )
            for op in builder.operators
        )
    return CompiledKernel(
        namespace["kernel"],
        plan,
        db_schema,
        source,
        builder.pipelines,
        len(builder.operators) - 1,
        fingerprint,
        operators,
    )
