"""Code generation: canonical logical plans to fused Python kernels.

The streaming executor (:mod:`repro.plan.physical`) pays a generator
frame plus a :class:`~repro.plan.physical.Tally` method call per tuple
per operator.  This module removes both: it walks a canonical plan in
the produce/consume style of HyPer-era query compilers and emits one
specialized Python function per plan, with

* scan -> filter -> project chains fused into a single ``for`` loop,
* hash-join build and probe sides as separate fused loops,
* the executor's index access paths — an equality selection over a
  stored relation loops over one bucket of the relation's cached key
  index, and a join whose right input is a stored relation probes that
  index instead of building a table (the same choices, through
  :func:`~repro.plan.physical.stored_base_name`, as the interpreter),
* dedup, set operations, and division as pipeline breakers, and
* selection conditions and projection maps inlined as expressions
  whose attribute references are resolved to tuple indexes at codegen
  time (no per-tuple closure or dict lookup survives), and
* a template's parameter slots (:func:`~repro.plan.logical.parameterize`)
  unpacked from the kernel's parameter tuple into locals in its
  prologue, so one kernel serves every statement of a shape and the hot
  loops read a local, never the tuple.

Work accounting is batched: each kernel accumulates plain-int local
counters and flushes them to the caller's ``Tally``/``EngineStatistics``
once, in a ``finally`` block.  The flush preserves the *exact* counter
semantics of the interpreted operators — the differential suite in
``tests/compile`` pins ``facts_scanned``, ``index_probes``,
``index_builds``, ``tuples_materialized``, and ``peak_buffer`` equal on
both legs.  (``peak_buffer`` batches soundly because every interpreted
buffer grows monotonically, so the running maximum it reports equals
the maximum over buffers of their final size.)

Plans the generator cannot fuse raise :class:`CompileFallback`; callers
run the interpreted executor instead and count the fallback.  The one
semantic hole is a semijoin/antijoin with no shared attributes: the
interpreted operator pulls a *single* right tuple and stops, so its
``facts_scanned`` is data-dependent in a way a batched kernel cannot
reproduce without re-implementing early termination — it stays
interpreted.

Equality comparisons inline as ``==``/``!=`` (no value produced by the
front-ends raises :class:`TypeError` from equality); ordered
comparisons go through tiny guarded helpers that mirror the
interpreted ``TypeError -> False`` contract per comparison.
"""

from __future__ import annotations

import math
import operator

from ..plan.physical import lookup_keys, stored_base_name, theta_keys
from ..relational import algebra as ra
from ..relational.relation import Relation


class CompileFallback(Exception):
    """The plan contains a shape the kernel generator does not fuse.

    Callers catch this and run the interpreted executor; the message
    names the offending operator so fallbacks are observable.
    """


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

_SIMPLE_CONST_TYPES = (int, float, str, bytes, bool, type(None))


class CompiledKernel:
    """One plan, compiled: a closed-over function plus its metadata."""

    __slots__ = (
        "fingerprint",
        "schema",
        "source",
        "pipelines",
        "ops",
        "hits",
        "_fn",
    )

    def __init__(self, fn, schema, source, pipelines, ops, fingerprint):
        self._fn = fn
        self.schema = schema
        self.source = source
        self.pipelines = pipelines
        self.ops = ops
        self.fingerprint = fingerprint
        self.hits = 0

    def execute(self, db, stats=None, params=()):
        """Run the kernel over ``db``; return ``(relation, tally)``.

        Mirrors :func:`~repro.plan.executor.execute_physical`: relations
        are fetched from ``db`` by name at call time, so a kernel stays
        valid across content changes under the same schema token, and
        ``params`` are the values of the template's parameter slots.
        """
        # Imported here to match repro.plan.executor: the stats module
        # lives in repro.datalog, whose package __init__ would otherwise
        # cycle back into repro.plan at import time.
        from ..datalog.stats import EngineStatistics
        from ..plan.physical import Tally

        tally = Tally(stats if stats is not None else EngineStatistics())
        out = self._fn(db, tally, params)
        return Relation(self.schema, out, validate=False), tally

    def __repr__(self):
        return "CompiledKernel(%s, %d pipelines, %d ops)" % (
            self.fingerprint,
            self.pipelines,
            self.ops,
        )


class _KernelBuilder:
    """Produce/consume walker that emits the kernel body.

    ``produce(node, consume)`` emits the loop(s) that enumerate
    ``node``'s tuples; ``consume(var)`` is called at the innermost point
    with the name of the variable holding the current tuple and emits
    the downstream code.  Streaming operators extend the current loop
    body; pipeline breakers drain their input into a local structure
    first.
    """

    def __init__(self, db_schema):
        self.db_schema = db_schema
        self.lines = []
        self.depth = 2  # inside `def kernel` -> `try:`
        self.env = {}
        self.slots = set()
        self.pipelines = 0
        self.ops = 0
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

    # -- conditions ------------------------------------------------------

    def operand_expr(self, operand, schema, var):
        if isinstance(operand, ra.Attr):
            return "%s[%d]" % (var, schema.position(operand.name))
        if isinstance(operand, ra.Const):
            return self.const_expr(operand.value)
        if isinstance(operand, ra.Param):
            return self.param_expr(operand)
        raise CompileFallback(
            "unsupported operand %s" % type(operand).__name__
        )

    def cond_expr(self, condition, schema, var):
        if isinstance(condition, ra.Comparison):
            left = self.operand_expr(condition.left, schema, var)
            right = self.operand_expr(condition.right, schema, var)
            if condition.op == "=":
                return "(%s == %s)" % (left, right)
            if condition.op == "!=":
                return "(%s != %s)" % (left, right)
            helper = _ORDERED_HELPERS.get(condition.op)
            if helper is None:
                raise CompileFallback(
                    "unsupported comparison %r" % (condition.op,)
                )
            name, fn = helper
            self.env[name] = fn
            return "%s(%s, %s)" % (name, left, right)
        if isinstance(condition, ra.And):
            if not condition.parts:
                return "True"
            return "(%s)" % " and ".join(
                self.cond_expr(p, schema, var) for p in condition.parts
            )
        if isinstance(condition, ra.Or):
            if not condition.parts:
                return "False"
            return "(%s)" % " or ".join(
                self.cond_expr(p, schema, var) for p in condition.parts
            )
        if isinstance(condition, ra.Not):
            return "(not %s)" % self.cond_expr(condition.part, schema, var)
        raise CompileFallback(
            "unsupported condition %s" % type(condition).__name__
        )

    # -- scans and index builds ------------------------------------------

    def scan(self, node, consume):
        """Drive a loop over a stored or literal relation.

        Matches ``Scan``: every yielded tuple charges ``facts_scanned``,
        and the fused subset always drains its scans completely, so the
        charge hoists to one ``len()``.
        """
        if isinstance(node, ra.RelationRef):
            rel = self.fresh("rel")
            self.emit("%s = _db[%r]" % (rel, node.name))
        else:
            rel = self.bind("lit", node.relation)
        self.emit("_scanned += len(%s.tuples)" % rel)
        self.pipelines += 1
        t = self.fresh("t")
        self.emit("for %s in %s.tuples:" % (t, rel))
        self.depth += 1
        consume(t)
        self.depth -= 1

    def base_index(self, name, positions):
        """Probe handle over a base relation's cached key index.

        Matches ``_BaseIndex.mapping()``: the build cost (one index
        build plus a full scan) is charged only when the pattern is not
        already cached on the relation.
        """
        rel = self.fresh("rel")
        self.emit("%s = _db[%r]" % (rel, name))
        self.emit("if not %s.has_key_index(%r):" % (rel, tuple(positions)))
        self.depth += 1
        self.emit("_built += 1")
        self.emit("_scanned += len(%s)" % rel)
        self.depth -= 1
        idx = self.fresh("idx")
        self.emit("%s = %s._key_index(%r)" % (idx, rel, tuple(positions)))
        return idx

    def index_lookup(self, name, lookup, schema, consume):
        """Drive a loop over one index bucket (``IndexLookup``).

        Charges like the interpreted operator: the index build on first
        use, one probe, and the bucket's tuples as scanned.
        """
        positions, key, residual = lookup
        idx = self.base_index(name, positions)
        bucket = self.fresh("bkt")
        key_expr = "(%s,)" % ", ".join(
            self.param_expr(part)
            if isinstance(part, ra.Param)
            else self.bind("c", part)
            for part in key
        )
        self.emit("_probed += 1")
        self.emit("%s = %s.get(%s, ())" % (bucket, idx, key_expr))
        self.emit("_scanned += len(%s)" % bucket)
        self.pipelines += 1
        t = self.fresh("t")
        self.emit("for %s in %s:" % (t, bucket))
        self.depth += 1
        if residual is None:
            consume(t)
        else:
            self.emit("if %s:" % self.cond_expr(residual, schema, t))
            self.depth += 1
            consume(t)
            self.depth -= 1
        self.depth -= 1

    def built_index(self, node, positions):
        """Drain ``node`` once into a fresh hash table (a pipeline
        breaker).  Matches ``_BuiltIndex.mapping()``: one index build,
        every drained tuple (duplicates included) materializes, and the
        table's final size is a peak-buffer candidate."""
        schema = node.schema(self.db_schema)
        idx = self.fresh("idx")
        cnt = self.fresh("cnt")
        self.emit("%s = {}" % idx)
        self.emit("%s = 0" % cnt)
        self.emit("_built += 1")

        def build(var):
            key = self.tuple_expr(var, positions, len(schema.attributes))
            self.emit("%s.setdefault(%s, []).append(%s)" % (idx, key, var))
            self.emit("%s += 1" % cnt)

        self.produce(node, build)
        self.emit("_mat += %s" % cnt)
        self.emit("if %s > _peak: _peak = %s" % (cnt, cnt))
        return idx

    # -- operators -------------------------------------------------------

    def produce(self, node, consume):
        self.ops += 1
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise CompileFallback(
                "unsupported operator %s" % type(node).__name__
            )
        method(self, node, consume)

    def _produce_scan(self, node, consume):
        self.scan(node, consume)

    def _produce_selection(self, node, consume):
        schema = node.child.schema(self.db_schema)
        name = stored_base_name(node.child)
        if name is not None:
            lookup = lookup_keys(node.condition, schema)
            if lookup is not None:
                self.index_lookup(name, lookup, schema, consume)
                return

        def filtered(var):
            self.emit(
                "if %s:" % self.cond_expr(node.condition, schema, var)
            )
            self.depth += 1
            consume(var)
            self.depth -= 1

        self.produce(node.child, filtered)

    def _produce_projection(self, node, consume):
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
        self.emit("_mat += len(%s)" % seen)
        self.emit("if len(%s) > _peak: _peak = len(%s)" % (seen, seen))

    def _produce_rename(self, node, consume):
        # Pure schema change: attribute order is preserved, so every
        # downstream position computed against the renamed schema is
        # valid against the child's tuples unchanged.
        self.produce(node.child, consume)

    def _produce_natural_join(self, node, consume):
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        shared = left_schema.shared_attributes(right_schema)
        right_positions = tuple(right_schema.position(a) for a in shared)
        name = stored_base_name(node.right)
        if name is not None:
            idx = self.base_index(name, right_positions)
        else:
            idx = self.built_index(node.right, right_positions)
        left_positions = [left_schema.position(a) for a in shared]
        extra_positions = [
            right_schema.position(a)
            for a in right_schema.attributes
            if a not in left_schema
        ]

        def probe(svar):
            self.emit("_probed += 1")
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

    def _produce_theta_join(self, node, consume):
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        out_schema = left_schema.concat(right_schema)
        left_positions, right_positions, residual = theta_keys(
            node.condition, left_schema, right_schema
        )

        def joined(svar, tvar):
            out = self.fresh("t")
            self.emit("%s = %s + %s" % (out, svar, tvar))
            if residual is not None:
                self.emit(
                    "if %s:" % self.cond_expr(residual, out_schema, out)
                )
                self.depth += 1
                consume(out)
                self.depth -= 1
            else:
                consume(out)

        if right_positions:
            name = stored_base_name(node.right)
            if name is not None:
                idx = self.base_index(name, right_positions)
            else:
                idx = self.built_index(node.right, right_positions)

            def probe(svar):
                self.emit("_probed += 1")
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
            buf = self._buffer_list(node.right)

            def loop(svar):
                u = self.fresh("u")
                self.emit("for %s in %s:" % (u, buf))
                self.depth += 1
                joined(svar, u)
                self.depth -= 1

            self.produce(node.left, loop)

    def _buffer_list(self, node):
        """Drain ``node`` into a list (theta-loop/product right side).

        Matches the interpreted buffering: every drained tuple
        materializes and the list's final length is a peak candidate.
        """
        buf = self.fresh("buf")
        self.emit("%s = []" % buf)
        self.produce(node, lambda var: self.emit("%s.append(%s)" % (buf, var)))
        self.emit("_mat += len(%s)" % buf)
        self.emit("if len(%s) > _peak: _peak = len(%s)" % (buf, buf))
        return buf

    def _produce_product(self, node, consume):
        buf = self._buffer_list(node.right)

        def loop(svar):
            u = self.fresh("u")
            self.emit("for %s in %s:" % (u, buf))
            self.depth += 1
            out = self.fresh("t")
            self.emit("%s = %s + %s" % (out, svar, u))
            consume(out)
            self.depth -= 1

        self.produce(node.left, loop)

    def _produce_union(self, node, consume):
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
        self.emit("_mat += len(%s)" % seen)
        self.emit("if len(%s) > _peak: _peak = len(%s)" % (seen, seen))

    def _right_member_set(self, node):
        """Drain ``node`` into a membership set (difference /
        intersection right side).  Duplicate adds still materialize,
        matching ``_RightSetOp._right_set``."""
        members = self.fresh("members")
        cnt = self.fresh("cnt")
        self.emit("%s = set()" % members)
        self.emit("%s = 0" % cnt)

        def collect(var):
            self.emit("%s.add(%s)" % (members, var))
            self.emit("%s += 1" % cnt)

        self.produce(node, collect)
        self.emit("_mat += %s" % cnt)
        self.emit(
            "if len(%s) > _peak: _peak = len(%s)" % (members, members)
        )
        return members

    def _produce_difference(self, node, consume):
        self._produce_membership(node, consume, "not in")

    def _produce_intersection(self, node, consume):
        self._produce_membership(node, consume, "in")

    def _produce_membership(self, node, consume, op):
        members = self._right_member_set(node.right)

        def probe(var):
            self.emit("_probed += 1")
            self.emit("if %s %s %s:" % (var, op, members))
            self.depth += 1
            consume(var)
            self.depth -= 1

        self.produce(node.left, probe)

    def _produce_semijoin(self, node, consume):
        negated = isinstance(node, ra.Antijoin)
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        shared = left_schema.shared_attributes(right_schema)
        if not shared:
            # The interpreted operator pulls exactly one right tuple and
            # stops — a data-dependent early termination whose counters
            # a batched kernel cannot reproduce.
            raise CompileFallback(
                "%s with no shared attributes"
                % ("antijoin" if negated else "semijoin")
            )
        positions = tuple(right_schema.position(a) for a in shared)
        if isinstance(node.right, ra.RelationRef):
            idx = self.base_index(node.right.name, positions)
        else:
            idx = self.built_index(node.right, positions)
        left_positions = [left_schema.position(a) for a in shared]
        op = "not in" if negated else "in"

        def probe(var):
            self.emit("_probed += 1")
            self.emit(
                "if %s %s %s:"
                % (self.tuple_expr(var, left_positions), op, idx)
            )
            self.depth += 1
            consume(var)
            self.depth -= 1

        self.produce(node.left, probe)

    def _materialize_set(self, node):
        """Drain ``node`` into a set, charging like ``_materialize``:
        every input tuple (duplicates included) materializes and the
        set's final size is a peak candidate."""
        out = self.fresh("side")
        cnt = self.fresh("cnt")
        self.emit("%s = set()" % out)
        self.emit("%s = 0" % cnt)

        def collect(var):
            self.emit("%s.add(%s)" % (out, var))
            self.emit("%s += 1" % cnt)

        self.produce(node, collect)
        self.emit("_mat += %s" % cnt)
        self.emit("if len(%s) > _peak: _peak = len(%s)" % (out, out))
        return out

    def _produce_division(self, node, consume):
        left_schema = node.left.schema(self.db_schema)
        right_schema = node.right.schema(self.db_schema)
        left_set = self._materialize_set(node.left)
        right_set = self._materialize_set(node.right)
        self.env["_Relation"] = Relation
        ls = self.bind("schema", left_schema)
        rs = self.bind("schema", right_schema)
        self.pipelines += 1
        t = self.fresh("t")
        self.emit(
            "for %s in _Relation(%s, %s, validate=False)"
            ".divide(_Relation(%s, %s, validate=False)).tuples:"
            % (t, ls, left_set, rs, right_set)
        )
        self.depth += 1
        consume(t)
        self.depth -= 1

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


def compile_plan(plan, db_schema, fingerprint="adhoc"):
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

    Returns:
        The compiled kernel.

    Raises:
        CompileFallback: when the plan contains an unsupported shape.
    """
    builder = _KernelBuilder(db_schema)
    schema = plan.schema(db_schema)
    builder.produce(plan, lambda var: builder.emit("_out.add(%s)" % var))
    lines = ["def kernel(_db, _tally, _params):"]
    lines.extend(
        "    _p%d = _params[%d]" % (slot, slot)
        for slot in sorted(builder.slots)
    )
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
    lines.extend(
        [
            "        _mat += len(_out)",
            "        if len(_out) > _peak: _peak = len(_out)",
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
    )
    source = "\n".join(lines) + "\n"
    namespace = dict(builder.env)
    exec(  # noqa: S102 - the source is generated here, not user input
        compile(source, "<kernel %s>" % fingerprint, "exec"), namespace
    )
    return CompiledKernel(
        namespace["kernel"],
        schema,
        source,
        builder.pipelines,
        builder.ops,
        fingerprint,
    )
