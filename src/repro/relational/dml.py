"""DML statements: mutation through the same plan pipeline reads use.

``parse_sql`` returns one of these for ``INSERT``/``DELETE``/``UPDATE``
text.  Each statement carries the *relational* side of the mutation as
an ordinary :class:`~repro.relational.algebra.AlgebraExpr` — the
``INSERT … SELECT`` source, or the matched-row scan a ``WHERE`` clause
induces — which the workbench plans, optimizes, caches, and executes
exactly like a query (compiled on its shape's second run).  The statement
then turns the executed relation into a tuple delta
(:meth:`DMLStatement.delta`) that ``Database.apply_delta`` commits.

Set semantics throughout, matching the rest of the model: inserting an
existing tuple is a no-op, updating a tuple onto an existing one merges,
and ``rows_affected`` counts tuples actually added plus actually
removed.
"""

from __future__ import annotations

from ..errors import ParseError
from . import algebra as ra

__all__ = [
    "DMLResult",
    "DMLStatement",
    "DeleteStatement",
    "InsertStatement",
    "UpdateStatement",
]


class DMLResult:
    """What a DML statement returns: the delta, accounted.

    ``len()`` is ``rows_affected`` (tuples added + tuples removed), so
    the flight recorder's cardinality column and ``sys_query_log`` show
    the mutation's size the way they show a query's result size.
    """

    __slots__ = ("kind", "target", "rows_matched", "rows_inserted",
                 "rows_deleted", "relation")

    def __init__(self, kind, target, rows_matched, inserted, deleted,
                 relation):
        self.kind = kind
        self.target = target
        self.rows_matched = rows_matched
        self.rows_inserted = inserted
        self.rows_deleted = deleted
        self.relation = relation

    @property
    def rows_affected(self):
        return self.rows_inserted + self.rows_deleted

    def __len__(self):
        return self.rows_affected

    def __repr__(self):
        return "DMLResult(%s %s: matched=%d +%d/-%d)" % (
            self.kind, self.target, self.rows_matched,
            self.rows_inserted, self.rows_deleted,
        )


def _aligned_tuples(executed, target_relation):
    """Executed tuples reordered into the target's attribute order.

    The matched-row scan normally comes back in target order already;
    an optimizer rewrite that reorders the projection is still correct
    as long as the names line up.
    """
    want = target_relation.schema.attributes
    if executed.schema.attributes == want:
        return set(executed.tuples)
    if set(executed.schema.attributes) != set(want):
        raise ParseError(
            "matched rows have attributes %r, target %r has %r"
            % (executed.schema.attributes, target_relation.schema.name,
               want)
        )
    positions = [executed.schema.position(a) for a in want]
    return {tuple(row[p] for p in positions) for row in executed.tuples}


class DMLStatement:
    """Base: a mutation of ``target`` with a plannable relational side."""

    kind = None

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def source_expr(self):
        """The algebra expression the pipeline must execute (or None).

        For INSERT this is the row source; for DELETE/UPDATE the
        matched-row scan over the target.
        """
        raise NotImplementedError

    def delta(self, executed, target_relation):
        """``(insert_rows, delete_rows, rows_matched)`` from the executed
        relational side."""
        raise NotImplementedError


class InsertStatement(DMLStatement):
    """``INSERT INTO target VALUES (…), …`` or ``INSERT INTO target
    SELECT …``.

    The source's arity must match the target's; attribute *names* need
    not (positional assignment, as in SQL).
    """

    kind = "insert"

    __slots__ = ("source",)

    def __init__(self, target, source):
        super().__init__(target)
        self.source = source

    def source_expr(self):
        return self.source

    def delta(self, executed, target_relation):
        arity = target_relation.schema.arity
        if executed.schema.arity != arity:
            raise ParseError(
                "INSERT INTO %s: source arity %d does not match target "
                "arity %d"
                % (self.target, executed.schema.arity, arity)
            )
        return set(executed.tuples), set(), len(executed)

    def __repr__(self):
        return "InsertStatement(%r, %r)" % (self.target, self.source)


class DeleteStatement(DMLStatement):
    """``DELETE FROM target [WHERE …]``.

    The matched-row scan (the whole relation when there is no WHERE)
    runs through the plan pipeline; the delta removes exactly the
    matched tuples.
    """

    kind = "delete"

    __slots__ = ("matched",)

    def __init__(self, target, matched):
        super().__init__(target)
        self.matched = matched

    def source_expr(self):
        return self.matched

    def delta(self, executed, target_relation):
        matched = _aligned_tuples(executed, target_relation)
        return set(), matched, len(matched)

    def __repr__(self):
        return "DeleteStatement(%r)" % (self.target,)


class UpdateStatement(DMLStatement):
    """``UPDATE target SET col = value, … [WHERE …]``.

    Assignment right-hand sides are constants or column references into
    the target's own row (``SET a = b`` copies within the tuple).  The
    matched rows run through the pipeline; each is transformed and the
    delta is delete-matched + insert-transformed (set semantics: a no-op
    transform cancels out).
    """

    kind = "update"

    __slots__ = ("assignments", "matched")

    def __init__(self, target, assignments, matched):
        super().__init__(target)
        self.assignments = tuple(assignments)
        self.matched = matched

    def source_expr(self):
        return self.matched

    def _transformer(self, schema):
        """Compile the SET list into a row → row function."""
        positions = {a: i for i, a in enumerate(schema.attributes)}
        compiled = []
        for column, operand in self.assignments:
            if column not in positions:
                raise ParseError(
                    "UPDATE %s: unknown column %r (has: %s)"
                    % (self.target, column, ", ".join(schema.attributes))
                )
            if operand[0] == "const":
                compiled.append((positions[column], None, operand[1]))
            else:
                source = operand[2]
                if source not in positions:
                    raise ParseError(
                        "UPDATE %s: unknown source column %r"
                        % (self.target, source)
                    )
                compiled.append((positions[column], positions[source], None))
        def transform(row):
            out = list(row)
            for position, source, value in compiled:
                out[position] = value if source is None else row[source]
            return tuple(out)
        return transform

    def delta(self, executed, target_relation):
        transform = self._transformer(target_relation.schema)
        matched = _aligned_tuples(executed, target_relation)
        transformed = {transform(row) for row in matched}
        return transformed, matched, len(matched)

    def __repr__(self):
        return "UpdateStatement(%r, %r)" % (self.target, self.assignments)
