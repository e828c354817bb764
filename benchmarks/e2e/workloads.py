"""The four seeded workloads of the end-to-end benchmark.

Each generator takes ``(seed, scale)`` and returns a :class:`Workload`: the
database as ``{name: (attributes, rows)}``, the warm-up ops, the timed
op stream, and the answer every op must produce.  The answers come from
a plain-Python model of each workload (dict lookups, comprehensions, a
BFS, a replay of the committed state), never from the system under test.

An op is one call into the public workbench API.  A *request* is what a
client waits on: one statement, or one transaction's ``begin``,
statements and ``commit``, including a retry after a conflict abort.
Latency and throughput count requests.

Sizes are chosen so that one round's timed loop takes 1 to 2 seconds
on a 2-vCPU machine with at least 200 requests; ``scale`` shrinks the op
counts (and the larger relations) for smoke tests.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import defaultdict
from functools import partial

from repro.relational import algebra as ra

from . import WORKLOADS

#: Expected answer of an op that must lose a concurrency-control conflict.
CONFLICT = "conflict"


class Op:
    """One API call: ``call(wb, ctx, stats)`` returns its answer.

    ``check(answer, expected)`` decides whether the answer is right;
    ``ctx`` carries live transaction handles between the ops of one
    request.
    """

    __slots__ = ("request", "kind", "call", "check", "expected")

    def __init__(self, request, kind, call, check, expected):
        self.request = request
        self.kind = kind
        self.call = call
        self.check = check
        self.expected = expected

    @property
    def language(self):
        """The front-end the op's text or object goes to, if any."""
        if self.call.func in (run_sql, txn_sql):
            return "sql"
        if self.call.func is not run_query:
            return None
        query = self.call.args[0]
        if not isinstance(query, str):
            return "algebra"
        if query.startswith("{"):
            return "calculus"
        return "datalog" if ":-" in query else "sql"

    def describe(self):
        """The op's inputs as text (the op-stream hash covers these)."""
        return "%d %s %s %r" % (
            self.request, self.kind, self.call.func.__name__, self.call.args
        )


class Workload:
    """Inputs, warm-up and timed ops, and the expected final state."""

    def __init__(self, data, warmup, ops, final_state=None,
                 txn_outcomes=None):
        self.data = data
        self.warmup = warmup
        self.ops = ops
        self.final_state = final_state or {}
        self.txn_outcomes = txn_outcomes

    @property
    def requests(self):
        return max(op.request for op in self.ops) + 1

    def digest(self):
        """SHA-256 over the generated data and op stream."""
        sha = hashlib.sha256()
        for name, (attributes, rows) in self.data.items():
            sha.update(repr((name, attributes, rows)).encode())
        for op in itertools.chain(self.warmup, self.ops):
            sha.update(op.describe().encode())
        return sha.hexdigest()


# -- calls: one public API entry point each ---------------------------------


def run_query(query, executor, wb, ctx, stats):
    return wb.run(query, executor=executor, stats=stats)


def run_sql(text, wb, ctx, stats):
    return wb.sql(text, stats=stats)


def txn_begin(txn, cc, wb, ctx, stats):
    ctx[txn] = wb.begin(cc=cc)
    return ctx[txn]


def txn_sql(txn, text, wb, ctx, stats):
    return ctx[txn].sql(text, stats=stats)


def txn_commit(txn, wb, ctx, stats):
    return ctx.pop(txn).commit()


# -- answer checks ------------------------------------------------------------


def same_rows(answer, expected):
    return answer.tuples == expected


def same_facts(answer, expected):
    return all(answer.get(pred) == rows for pred, rows in expected)


def same_delta(answer, expected):
    return (answer.rows_inserted, answer.rows_deleted) == expected


def began(answer, expected):
    return answer.status == "active"


def committed(answer, expected):
    return isinstance(answer, int)


def lose_conflict(answer, expected):
    # Only reached when the op returned instead of raising.
    return False


# -- helpers -------------------------------------------------------------------


def scaled(count, scale, floor=1):
    return max(floor, int(round(count * scale)))


def relabel(rng, count):
    """``count`` distinct seeded labels."""
    return rng.sample(range(10 * count), count)


def zipf_keys(rng, keys, count, s=1.0):
    """``count`` draws from ``keys`` with Zipf(s) rank weights; the seed
    decides which key is hot."""
    keys = list(keys)
    rng.shuffle(keys)
    weights = itertools.accumulate(
        1.0 / (rank ** s) for rank in range(1, len(keys) + 1)
    )
    return rng.choices(keys, cum_weights=list(weights), k=count)


#: The production executor routes; every template runs on both, half
#: of its statements each.
ROUTES = (True, "compiled")


def mix(rng, weights, count):
    """``count`` indices into ``weights``, in proportion to them, in
    seeded order.

    Fixed proportions keep the latency mixture, and so its percentiles,
    the same for every seed; only the order and the data change.
    """
    total = sum(weights)
    quotas = [count * weight / total for weight in weights]
    counts = [int(quota) for quota in quotas]
    # The remainder goes to the largest fractional parts.
    by_fraction = sorted(
        range(len(weights)), key=lambda i: counts[i] - quotas[i]
    )
    for index in by_fraction[:count - sum(counts)]:
        counts[index] += 1
    picks = [index for index, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(picks)
    return picks


# -- point-read -----------------------------------------------------------------

POINT_CUSTOMERS = 1000
POINT_ORDERS = 4000
POINT_REGIONS = 50
POINT_STATEMENTS = 500


def point_read(seed, scale=1.0):
    """Small answers over many distinct statements: the plan cache (128
    entries) and the kernel cache (256) are too small for the stream."""
    rng = random.Random(seed)
    regions = [(r, "region%d" % r) for r in range(POINT_REGIONS)]
    customers = [
        (c, "cust%d" % c, rng.randrange(POINT_REGIONS))
        for c in range(POINT_CUSTOMERS)
    ]
    orders = [
        (o, rng.randrange(POINT_CUSTOMERS), rng.randrange(1000))
        for o in range(POINT_ORDERS)
    ]
    data = {
        "region": (("rid", "rname"), regions),
        "customer": (("cid", "cname", "crid"), customers),
        "orders": (("oid", "ocid", "amount"), orders),
    }

    region_name = dict(regions)
    customer = {c: (name, r) for c, name, r in customers}
    orders_of = defaultdict(list)
    for o, c, amount in orders:
        orders_of[c].append((o, amount))

    def point(k):
        return (
            "SELECT c.cname, c.crid FROM customer c WHERE c.cid = %d" % k,
            frozenset([customer[k]]),
        )

    def join2(k):
        return (
            "SELECT o.oid, o.amount FROM customer c, orders o "
            "WHERE c.cid = o.ocid AND c.cid = %d" % k,
            frozenset(orders_of[k]),
        )

    def join3(k):
        name = region_name[customer[k][1]]
        return (
            "SELECT o.oid, r.rname FROM customer c, orders o, region r "
            "WHERE c.cid = o.ocid AND c.crid = r.rid AND c.cid = %d" % k,
            frozenset((o, name) for o, _amount in orders_of[k]),
        )

    def calculus(k):
        return (
            "{(n, r) | customer(%d, n, r)}" % k,
            frozenset([customer[k]]),
        )

    def algebra(k):
        expr = ra.Projection(
            ra.Selection(
                ra.RelationRef("orders"),
                ra.Comparison(ra.Attr("ocid"), "=", ra.Const(k)),
            ),
            ("oid", "amount"),
        )
        return expr, frozenset(orders_of[k])

    # The joins get three times the weight of the other templates, so
    # the median request is a compiled join, in the middle of that
    # latency mode rather than on the edge between two modes, where it
    # would jump from seed to seed.
    weighted = ((point, 1), (join2, 3), (join3, 3), (calculus, 1),
                (algebra, 1))
    combos = [(t, route) for t, _w in weighted for route in ROUTES]

    def op(request, combo, key):
        template, executor = combo
        query, expected = template(key)
        return Op(
            request, "read", partial(run_query, query, executor),
            same_rows, expected,
        )

    warm_key = zipf_keys(rng, range(POINT_CUSTOMERS), 1)[0]
    warmup = [op(-1, combo, warm_key) for combo in combos]
    picks = mix(
        rng, [w for _t, w in weighted for _route in ROUTES],
        scaled(POINT_STATEMENTS, scale),
    )
    keys = zipf_keys(rng, range(POINT_CUSTOMERS), len(picks))
    ops = [
        op(i, combos[pick], key)
        for i, (pick, key) in enumerate(zip(picks, keys))
    ]
    return Workload(data, warmup, ops)


# -- analytic-scan ----------------------------------------------------------------

SCAN_FACT = 10000
SCAN_K1, SCAN_K2 = 320, 310
SCAN_PATH = 2000
SCAN_PATH_DOMAIN = 400
SCAN_STATEMENTS = 204


def analytic_scan(seed, scale=1.0):
    """Six fixed templates over larger relations: after the warm-up the
    plan and kernel caches serve every statement, so time goes to
    execution."""
    rng = random.Random(seed)
    n_fact = scaled(SCAN_FACT, scale, floor=500)
    n_path = scaled(SCAN_PATH, scale, floor=200)
    fact = [
        (rng.randrange(SCAN_K1), rng.randrange(SCAN_K2), m)
        for m in range(n_fact)
    ]
    dim1 = [(k, rng.randrange(100)) for k in range(0, SCAN_K1, 10)]
    dim2 = [(k, rng.randrange(100)) for k in range(0, SCAN_K2, 10)]

    def edges():
        pairs = set()
        while len(pairs) < n_path:
            pairs.add(
                (rng.randrange(SCAN_PATH_DOMAIN),
                 rng.randrange(SCAN_PATH_DOMAIN))
            )
        return sorted(pairs)

    p1, p2, p3, p4 = edges(), edges(), edges(), edges()
    data = {
        "fact": (("k1", "k2", "m"), fact),
        "dim1": (("k1", "x"), dim1),
        "dim2": (("k2", "y"), dim2),
        "p1": (("a", "b"), p1),
        "p2": (("b", "c"), p2),
        "p3": (("c", "d"), p3),
        "p4": (("d", "e"), p4),
    }

    x_of, y_of = dict(dim1), dict(dim2)
    k2_pick = rng.randrange(SCAN_K2)
    m_cut = n_fact // 4
    end_cut = SCAN_PATH_DOMAIN // 40

    star = (
        "SELECT f.m, d1.x, d2.y FROM fact f, dim1 d1, dim2 d2 "
        "WHERE f.k1 = d1.k1 AND f.k2 = d2.k2",
        frozenset(
            (m, x_of[k1], y_of[k2])
            for k1, k2, m in fact
            if k1 in x_of and k2 in y_of
        ),
    )
    filter_project = (
        "SELECT f.k1, f.m FROM fact f WHERE f.k2 = %d" % k2_pick,
        frozenset((k1, m) for k1, k2, m in fact if k2 == k2_pick),
    )
    except_ = (
        "SELECT f.k1 FROM fact f WHERE f.m < %d "
        "EXCEPT SELECT d.k1 FROM dim1 d" % m_cut,
        frozenset((k1,) for k1, _k2, m in fact if m < m_cut)
        - frozenset((k,) for k, _x in dim1),
    )

    def successors(pairs):
        out = defaultdict(set)
        for left, right in pairs:
            out[left].add(right)
        return out

    s2, s3, s4 = successors(p2), successors(p3), successors(p4)
    # No projection on top: over this join tree one makes the optimizer
    # prune columns instead of routing through Yannakakis.
    path4 = (
        ra.NaturalJoin(
            ra.Selection(
                ra.RelationRef("p1"),
                ra.Comparison(ra.Attr("a"), "<", ra.Const(end_cut)),
            ),
            ra.NaturalJoin(
                ra.RelationRef("p2"),
                ra.NaturalJoin(
                    ra.RelationRef("p3"),
                    ra.Selection(
                        ra.RelationRef("p4"),
                        ra.Comparison(ra.Attr("e"), "<", ra.Const(end_cut)),
                    ),
                ),
            ),
        ),
        frozenset(
            (a, b, c, d, e)
            for a, b in p1
            if a < end_cut
            for c in s2[b]
            for d in s3[c]
            for e in s4[d]
            if e < end_cut
        ),
    )
    calculus = (
        "{(a, c) | exists b . (p1(a, b) and p2(b, c) and a < %d)}"
        % end_cut,
        frozenset(
            (a, c) for a, b in p1 if a < end_cut for c in s2[b]
        ),
    )
    datalog = (
        "q(K, X, Y) :- fact(K, K2, M), dim1(K, X), dim2(K2, Y), M < %d."
        % m_cut,
        (("q", frozenset(
            (k1, x_of[k1], y_of[k2])
            for k1, k2, m in fact
            if m < m_cut and k1 in x_of and k2 in y_of
        )),),
    )
    # (template, check, weight).  The weights put the median and p95
    # requests inside dense latency modes (the compiled path-4 and
    # Datalog runs, the interpreted ones), not on the edge between two
    # modes, where a percentile jumps from run to run.
    weighted = (
        (star, same_rows, 1), (filter_project, same_rows, 1),
        (except_, same_rows, 1), (path4, same_rows, 4),
        (calculus, same_rows, 1), (datalog, same_facts, 3),
    )
    combos = [(t, route) for t in weighted for route in ROUTES]

    def op(request, combo):
        ((query, expected), check, _weight), executor = combo
        return Op(
            request, "read", partial(run_query, query, executor), check,
            expected,
        )

    warmup = [op(-1, combo) for combo in combos]
    picks = mix(
        rng, [t[2] for t, _route in combos], scaled(SCAN_STATEMENTS, scale)
    )
    ops = [op(i, combos[pick]) for i, pick in enumerate(picks)]
    return Workload(data, warmup, ops)


# -- recursive-datalog ------------------------------------------------------------

#: The graph is a grid DAG (edges right and down), so its closure and
#: fixpoint depth are the same for every seed; the seed relabels nodes.
GRID_ROWS, GRID_COLUMNS = 10, 8
#: Grid cells the reachability program starts from.
SOURCES = ((0, 5), (4, 0))
TREE_NODES = 60
RECURSIVE_EVALUATIONS = 200

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""

REACH = """
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
unreached(X) :- node(X), not reach(X).
"""

SAME_GENERATION = """
sg(X, Y) :- par(X, P), par(Y, P).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
"""


def recursive_datalog(seed, scale=1.0):
    """Three recursive programs on the fixpoint engines, which bypass the
    plan, optimizer and compiler layers."""
    rng = random.Random(seed)
    cells = [(r, c) for r in range(GRID_ROWS) for c in range(GRID_COLUMNS)]
    label = dict(zip(cells, relabel(rng, len(cells))))
    nodes = sorted(label.values())
    edges = sorted(
        (label[cell], label[step])
        for cell in cells
        for step in ((cell[0], cell[1] + 1), (cell[0] + 1, cell[1]))
        if step in label
    )
    sources = [label[cell] for cell in SOURCES]
    # A ternary tree, relabelled by the seed like the grid.
    labels = relabel(rng, TREE_NODES)
    parent = [(labels[i], labels[(i - 1) // 3]) for i in range(1, TREE_NODES)]
    data = {
        "edge": (("src", "dst"), edges),
        "node": (("n",), [(n,) for n in nodes]),
        "source": (("s",), [(s,) for s in sources]),
        "par": (("child", "parent"), parent),
    }

    succ = defaultdict(set)
    for u, v in edges:
        succ[u].add(v)

    def reachable(starts):
        seen, frontier = set(), list(starts)
        while frontier:
            for v in succ[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    tc = frozenset(
        (u, v) for u in nodes for v in reachable([u])
    )
    reach = set(sources) | reachable(sources)
    depth = {labels[0]: 0}
    for i in range(1, TREE_NODES):
        depth[labels[i]] = depth[labels[(i - 1) // 3]] + 1
    by_depth = defaultdict(list)
    for node, d in depth.items():
        if d > 0:
            by_depth[d].append(node)
    sg = frozenset(
        (x, y) for level in by_depth.values() for x in level for y in level
    )
    programs = (
        (TC, (("tc", tc),)),
        (REACH, (
            ("reach", frozenset((n,) for n in reach)),
            ("unreached", frozenset((n,) for n in nodes if n not in reach)),
        )),
        (SAME_GENERATION, (("sg", sg),)),
    )

    def op(request, program):
        text, expected = program
        return Op(
            request, "read", partial(run_query, text, True), same_facts,
            expected,
        )

    warmup = [op(-1, program) for program in programs]
    picks = mix(
        rng, [1] * len(programs), scaled(RECURSIVE_EVALUATIONS, scale)
    )
    ops = [op(i, programs[pick]) for i, pick in enumerate(picks)]
    return Workload(data, warmup, ops)


# -- txn-mixed ----------------------------------------------------------------------

TXN_STOCK = 2500
TXN_ORDERS = 2500
TXN_REQUESTS = 220
#: Percent of request slots: reads, autocommit DML, transactions.
CLASS_MIX = (42, 37, 21)
#: Percent of autocommit DML: INSERT, UPDATE, DELETE.
DML_MIX = (50, 35, 15)
#: Every PAIR_EVERY-th transaction opens while the one before is open.
PAIR_EVERY = 8

READ = (
    "SELECT o.oid, o.oqty, s.qty FROM orders o, stock s "
    "WHERE o.osid = s.sid AND s.sid = %d"
)


class _TxnModel:
    """Committed state of the txn-mixed session, replayed in plain Python.

    Also generates the statements, so every DELETE names a live order and
    every UPDATE changes a value.
    """

    def __init__(self, rng, n_stock, n_orders):
        self.rng = rng
        self.stock = {s: rng.randrange(100) for s in range(n_stock)}
        self.orders = {}
        self.by_sid = defaultdict(set)
        self.live = []
        for oid in range(n_orders):
            self.add_order(oid, rng.randrange(n_stock), rng.randrange(100))
        self.next_oid = n_orders

    def add_order(self, oid, sid, qty):
        self.orders[oid] = (sid, qty)
        self.by_sid[sid].add(oid)
        self.live.append(oid)

    def drop_order(self, oid):
        sid, _qty = self.orders.pop(oid)
        self.by_sid[sid].discard(oid)
        self.live.remove(oid)

    def read(self, sid, stock=None, extra=()):
        qty = (stock or self.stock)[sid]
        rows = {(oid, self.orders[oid][1], qty) for oid in self.by_sid[sid]}
        rows.update((oid, oqty, qty) for oid, osid, oqty in extra
                    if osid == sid)
        return frozenset(rows)

    def new_qty(self, sid):
        return (self.stock[sid] + 1 + self.rng.randrange(99)) % 100

    def random_sid(self):
        return self.rng.randrange(len(self.stock))

    def live_order(self):
        return self.live[self.rng.randrange(len(self.live))]

    def transaction(self):
        """The three statements of one transaction, and its writes."""
        sid = self.random_sid()
        qty = self.new_qty(sid)
        oid = self.next_oid
        self.next_oid += 1
        order = (oid, sid, self.rng.randrange(100))
        return {
            "sid": sid, "qty": qty, "order": order,
            "texts": (
                "UPDATE stock SET qty = %d WHERE sid = %d" % (qty, sid),
                "INSERT INTO orders VALUES (%d, %d, %d)" % order,
                READ % sid,
            ),
        }

    def answers(self, txn):
        """Expected answers of the statements, seen from inside ``txn``
        against the current committed state."""
        sid, qty = txn["sid"], txn["qty"]
        own_stock = dict(self.stock)
        own_stock[sid] = qty
        update = (1, 1) if self.stock[sid] != qty else (0, 0)
        return update, (1, 0), self.read(sid, own_stock, (txn["order"],))

    def commit(self, txn):
        self.stock[txn["sid"]] = txn["qty"]
        self.add_order(*txn["order"])


def txn_mixed(seed, scale=1.0):
    """Reads, autocommit DML and transactions on the same two relations,
    in one session, with deterministic conflicts."""
    rng = random.Random(seed)
    model = _TxnModel(
        rng, scaled(TXN_STOCK, scale, floor=100),
        scaled(TXN_ORDERS, scale, floor=100),
    )
    data = {
        "stock": (("sid", "qty"), sorted(model.stock.items())),
        "orders": (
            ("oid", "osid", "oqty"),
            [(oid, sid, qty) for oid, (sid, qty) in model.orders.items()],
        ),
    }
    # The warm-up read runs before the stream, against the initial data.
    warm_sid = model.orders[model.live_order()][0]
    warmup = [
        Op(-1, "read", partial(run_sql, READ % warm_sid), same_rows,
           model.read(warm_sid))
    ]
    ops = []
    counts = {"commits": 0, "aborts": 0}
    txn_ids = itertools.count()

    def add(request, kind, call, check, expected):
        ops.append(Op(request, kind, call, check, expected))

    def statements(request, txn_no, txn, first=0):
        answers = model.answers(txn)
        checks = (same_delta, same_delta, same_rows)
        for text, check, expected in list(
            zip(txn["texts"], checks, answers)
        )[first:]:
            add(request, "txn", partial(txn_sql, txn_no, text), check,
                expected)

    def begin(request, cc):
        txn_no = next(txn_ids)
        add(request, "txn", partial(txn_begin, txn_no, cc), began, None)
        return txn_no

    def commit(request, txn_no, txn):
        add(request, "txn", partial(txn_commit, txn_no), committed, None)
        model.commit(txn)
        counts["commits"] += 1

    def whole(request, cc, txn):
        txn_no = begin(request, cc)
        statements(request, txn_no, txn)
        commit(request, txn_no, txn)

    def pair(first_request, cc):
        """Transaction B opens while A is still open.  No-wait 2PL
        aborts B at its first statement (A holds the X lock on stock);
        timestamp ordering lets the younger B commit first and aborts A
        at its next statement.  The loser retries after the winner."""
        a, b = model.transaction(), model.transaction()
        req_a, req_b = first_request, first_request + 1
        a_no = begin(req_a, cc)
        add(req_a, "txn", partial(txn_sql, a_no, a["texts"][0]), same_delta,
            model.answers(a)[0])
        b_no = begin(req_b, cc)
        counts["aborts"] += 1
        if cc == "2pl":
            add(req_b, "txn", partial(txn_sql, b_no, b["texts"][0]),
                lose_conflict, CONFLICT)
            statements(req_a, a_no, a, first=1)
            commit(req_a, a_no, a)
            whole(req_b, cc, b)
        else:
            statements(req_b, b_no, b)
            commit(req_b, b_no, b)
            add(req_a, "txn", partial(txn_sql, a_no, a["texts"][1]),
                lose_conflict, CONFLICT)
            whole(req_a, cc, a)

    classes = mix(rng, CLASS_MIX, scaled(TXN_REQUESTS, scale, floor=16))
    dml_kinds = iter(mix(rng, DML_MIX, classes.count(1)))
    request = 0
    transactions = 0
    units = 0
    for cls in classes:
        if cls == 0:
            sid = model.orders[model.live_order()][0]
            add(request, "read", partial(run_sql, READ % sid), same_rows,
                model.read(sid))
            request += 1
        elif cls == 1:
            kind = next(dml_kinds)
            if kind == 0:
                oid = model.next_oid
                model.next_oid += 1
                row = (oid, model.random_sid(), rng.randrange(100))
                text = "INSERT INTO orders VALUES (%d, %d, %d)" % row
                model.add_order(*row)
                expected = (1, 0)
            elif kind == 1:
                sid = model.random_sid()
                qty = model.new_qty(sid)
                text = "UPDATE stock SET qty = %d WHERE sid = %d" % (qty, sid)
                model.stock[sid] = qty
                expected = (1, 1)
            else:
                oid = model.live_order()
                text = "DELETE FROM orders WHERE oid = %d" % oid
                model.drop_order(oid)
                expected = (0, 1)
            add(request, "dml", partial(run_sql, text), same_delta, expected)
            request += 1
        else:
            cc = ("2pl", "timestamp")[units % 2]
            units += 1
            if transactions % PAIR_EVERY == PAIR_EVERY - 2:
                pair(request, cc)
                request += 2
                transactions += 2
            else:
                whole(request, cc, model.transaction())
                request += 1
                transactions += 1

    final_state = {
        "stock": frozenset(model.stock.items()),
        "orders": frozenset(
            (oid, sid, qty) for oid, (sid, qty) in model.orders.items()
        ),
    }
    return Workload(
        data, warmup, ops, final_state=final_state, txn_outcomes=counts
    )


GENERATORS = dict(
    zip(WORKLOADS, (point_read, analytic_scan, recursive_datalog, txn_mixed))
)


def build(name, seed, scale=1.0):
    """The named workload for ``seed`` at ``scale``."""
    return GENERATORS[name](seed, scale)
