"""Corpus + replay: failing cases persist as JSON regression entries.

Every divergence the driver finds (after shrinking) serializes into
``tests/conformance/corpus/*.json``; a tier-1 test replays every entry
on each run, so once-found bugs stay found.  Entries are also written
by hand — the seeded corpus reproduces the historical bug classes from
``CHANGES.md`` in hand-shrunk form.

Serialization choices per payload kind:

* **Datalog programs and transaction schedules** round-trip through
  their textual notation (``str`` ↔ ``parse_program`` /
  ``parse_schedule``), so corpus entries stay human-readable where the
  library already has a syntax.
* **Algebra expressions and calculus queries** get a structural JSON
  encoding: the calculus pretty-printer's output is not accepted by
  :func:`~repro.relational.calculus_frontend` (``&``/``~`` sugar), and
  algebra conditions have no text parser at all.
* **Databases and EDBs** are ``{name: {attributes, rows}}`` /
  ``{predicate: rows}`` tables.
"""

from __future__ import annotations

import json
import os

from ..datalog.ast import Atom, Variable
from ..datalog.facts import FactStore
from ..datalog.parser import parse_program
from ..relational import algebra as ra
from ..relational import calculus as rc
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import RelationSchema
from ..transactions.schedule import parse_schedule
from .workloads import Case

#: Corpus files carry a format version so future layout changes can
#: migrate old entries instead of silently misreading them.
FORMAT = 1


# ---------------------------------------------------------------------------
# Algebra expressions and conditions
# ---------------------------------------------------------------------------


def _encode_operand(operand):
    if isinstance(operand, ra.Attr):
        return ["attr", operand.name]
    return ["const", operand.value]


def _decode_operand(data):
    tag, value = data
    return ra.Attr(value) if tag == "attr" else ra.Const(value)


def encode_condition(condition):
    if isinstance(condition, ra.Comparison):
        return {
            "t": "cmp",
            "left": _encode_operand(condition.left),
            "op": condition.op,
            "right": _encode_operand(condition.right),
        }
    if isinstance(condition, ra.And):
        return {"t": "and", "parts": [encode_condition(p) for p in condition.parts]}
    if isinstance(condition, ra.Or):
        return {"t": "or", "parts": [encode_condition(p) for p in condition.parts]}
    if isinstance(condition, ra.Not):
        return {"t": "not", "part": encode_condition(condition.part)}
    raise TypeError("cannot encode condition %r" % (condition,))


def decode_condition(data):
    tag = data["t"]
    if tag == "cmp":
        return ra.Comparison(
            _decode_operand(data["left"]),
            data["op"],
            _decode_operand(data["right"]),
        )
    if tag == "and":
        return ra.And(*[decode_condition(p) for p in data["parts"]])
    if tag == "or":
        return ra.Or(*[decode_condition(p) for p in data["parts"]])
    if tag == "not":
        return ra.Not(decode_condition(data["part"]))
    raise ValueError("unknown condition tag %r" % (tag,))


def _encode_relation(relation):
    return {
        "name": relation.schema.name,
        "attributes": list(relation.schema.attributes),
        "rows": [list(row) for row in relation.sorted_tuples()],
    }


def _decode_relation(data):
    schema = RelationSchema(data["name"], tuple(data["attributes"]))
    return Relation(schema, [tuple(row) for row in data["rows"]])


def encode_expression(expr):
    if isinstance(expr, ra.RelationRef):
        return {"t": "ref", "name": expr.name}
    if isinstance(expr, ra.ConstantRelation):
        return {"t": "constrel", "relation": _encode_relation(expr.relation)}
    if isinstance(expr, ra.Selection):
        return {
            "t": "select",
            "child": encode_expression(expr.child),
            "condition": encode_condition(expr.condition),
        }
    if isinstance(expr, ra.Projection):
        return {
            "t": "project",
            "child": encode_expression(expr.child),
            "attributes": list(expr.attributes),
        }
    if isinstance(expr, ra.Rename):
        return {
            "t": "rename",
            "child": encode_expression(expr.child),
            "mapping": dict(expr.mapping),
        }
    if isinstance(expr, ra.ThetaJoin):
        return {
            "t": "thetajoin",
            "left": encode_expression(expr.left),
            "right": encode_expression(expr.right),
            "condition": encode_condition(expr.condition),
        }
    if isinstance(expr, ra._Binary):
        return {
            "t": type(expr).__name__.lower(),
            "left": encode_expression(expr.left),
            "right": encode_expression(expr.right),
        }
    raise TypeError("cannot encode expression %r" % (expr,))


_BINARY = {
    "product": ra.Product,
    "naturaljoin": ra.NaturalJoin,
    "semijoin": ra.Semijoin,
    "antijoin": ra.Antijoin,
    "union": ra.Union,
    "difference": ra.Difference,
    "intersection": ra.Intersection,
    "division": ra.Division,
}


def decode_expression(data):
    tag = data["t"]
    if tag == "ref":
        return ra.RelationRef(data["name"])
    if tag == "constrel":
        return ra.ConstantRelation(_decode_relation(data["relation"]))
    if tag == "select":
        return ra.Selection(
            decode_expression(data["child"]), decode_condition(data["condition"])
        )
    if tag == "project":
        return ra.Projection(
            decode_expression(data["child"]), tuple(data["attributes"])
        )
    if tag == "rename":
        return ra.Rename(decode_expression(data["child"]), dict(data["mapping"]))
    if tag == "thetajoin":
        return ra.ThetaJoin(
            decode_expression(data["left"]),
            decode_expression(data["right"]),
            decode_condition(data["condition"]),
        )
    if tag in _BINARY:
        return _BINARY[tag](
            decode_expression(data["left"]), decode_expression(data["right"])
        )
    raise ValueError("unknown expression tag %r" % (tag,))


# ---------------------------------------------------------------------------
# Calculus formulas
# ---------------------------------------------------------------------------


def _encode_term(term):
    if isinstance(term, rc.Var):
        return ["var", term.name]
    return ["cst", term.value]


def _decode_term(data):
    tag, value = data
    return rc.Var(value) if tag == "var" else rc.Cst(value)


def encode_formula(formula):
    if isinstance(formula, rc.RelAtom):
        return {
            "t": "atom",
            "relation": formula.relation,
            "terms": [_encode_term(t) for t in formula.terms],
        }
    if isinstance(formula, rc.Compare):
        return {
            "t": "cmp",
            "left": _encode_term(formula.left),
            "op": formula.op,
            "right": _encode_term(formula.right),
        }
    if isinstance(formula, rc.AndF):
        return {"t": "and", "parts": [encode_formula(p) for p in formula.parts]}
    if isinstance(formula, rc.OrF):
        return {"t": "or", "parts": [encode_formula(p) for p in formula.parts]}
    if isinstance(formula, rc.NotF):
        return {"t": "not", "part": encode_formula(formula.part)}
    if isinstance(formula, rc.Exists):
        return {
            "t": "exists",
            "variables": list(formula.variables),
            "part": encode_formula(formula.part),
        }
    if isinstance(formula, rc.Forall):
        return {
            "t": "forall",
            "variables": list(formula.variables),
            "part": encode_formula(formula.part),
        }
    if isinstance(formula, rc.Implies):
        return {
            "t": "implies",
            "antecedent": encode_formula(formula.antecedent),
            "consequent": encode_formula(formula.consequent),
        }
    raise TypeError("cannot encode formula %r" % (formula,))


def decode_formula(data):
    tag = data["t"]
    if tag == "atom":
        return rc.RelAtom(
            data["relation"], [_decode_term(t) for t in data["terms"]]
        )
    if tag == "cmp":
        return rc.Compare(
            _decode_term(data["left"]), data["op"], _decode_term(data["right"])
        )
    if tag == "and":
        return rc.AndF(*[decode_formula(p) for p in data["parts"]])
    if tag == "or":
        return rc.OrF(*[decode_formula(p) for p in data["parts"]])
    if tag == "not":
        return rc.NotF(decode_formula(data["part"]))
    if tag == "exists":
        return rc.Exists(tuple(data["variables"]), decode_formula(data["part"]))
    if tag == "forall":
        return rc.Forall(tuple(data["variables"]), decode_formula(data["part"]))
    if tag == "implies":
        return rc.Implies(
            decode_formula(data["antecedent"]),
            decode_formula(data["consequent"]),
        )
    raise ValueError("unknown formula tag %r" % (tag,))


# ---------------------------------------------------------------------------
# Databases, fact stores, query atoms
# ---------------------------------------------------------------------------


def encode_database(db):
    return {
        name: {
            "attributes": list(db[name].schema.attributes),
            "rows": [list(row) for row in db[name].sorted_tuples()],
        }
        for name in db.names()
    }


def decode_database(data):
    db = Database()
    for name in sorted(data):
        entry = data[name]
        schema = RelationSchema(name, tuple(entry["attributes"]))
        db.add(Relation(schema, [tuple(row) for row in entry["rows"]]))
    return db


def encode_facts(edb):
    return {
        predicate: [list(row) for row in sorted(edb.get(predicate))]
        for predicate in sorted(edb.predicates())
    }


def decode_facts(data):
    store = FactStore()
    for predicate in sorted(data):
        for row in data[predicate]:
            store.add(predicate, tuple(row))
    return store


def _encode_query_atom(atom):
    return {
        "predicate": atom.predicate,
        "terms": [
            ["var", t.name] if isinstance(t, Variable) else ["const", t.value]
            for t in atom.terms
        ],
    }


def _decode_query_atom(data):
    terms = []
    for tag, value in data["terms"]:
        terms.append(Variable(value) if tag == "var" else value)
    return Atom(data["predicate"], tuple(terms))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def encode_case(case):
    """The JSON-safe dictionary for one case."""
    payload = case.payload
    kind = payload.get("kind")
    if kind == "relational":
        encoded = {
            "kind": kind,
            "db": encode_database(payload["db"]),
            "expr": (
                encode_expression(payload["expr"])
                if payload.get("expr") is not None
                else None
            ),
            "sql": payload.get("sql"),
        }
        if payload.get("rewrites"):
            encoded["rewrites"] = list(payload["rewrites"])
    elif kind == "calculus":
        query = payload["query"]
        encoded = {
            "kind": kind,
            "db": encode_database(payload["db"]),
            "query": {
                "head": list(query.head),
                "formula": encode_formula(query.formula),
            },
        }
    elif kind == "datalog":
        encoded = {
            "kind": kind,
            "program": str(payload["program"]),
            "edb": encode_facts(payload["edb"]),
            "queries": [
                _encode_query_atom(q) for q in payload.get("queries", ())
            ],
        }
        if payload.get("mutations"):
            encoded["mutations"] = list(payload["mutations"])
        if payload.get("growth"):
            encoded["growth"] = {
                predicate: [list(row) for row in rows]
                for predicate, rows in payload["growth"].items()
            }
    elif kind == "schedule":
        encoded = {"kind": kind, "schedule": str(payload["schedule"])}
    elif kind == "transactions-live":
        encoded = {
            "kind": kind,
            "db": encode_database(payload["db"]),
            "programs": [list(program) for program in payload["programs"]],
            "order": list(payload["order"]),
            "commit_order": list(payload["commit_order"]),
        }
    else:
        raise TypeError("cannot encode payload kind %r" % (kind,))
    return {
        "format": FORMAT,
        "family": case.family,
        "seed": case.seed,
        "note": case.note,
        "constructs": list(case.constructs),
        "payload": encoded,
    }


def decode_case(data):
    """Rebuild a :class:`Case` from :func:`encode_case` output."""
    if data.get("format") != FORMAT:
        raise ValueError(
            "unsupported corpus format %r (expected %d)"
            % (data.get("format"), FORMAT)
        )
    encoded = data["payload"]
    kind = encoded.get("kind")
    if kind == "relational":
        payload = {
            "kind": kind,
            "db": decode_database(encoded["db"]),
            "expr": (
                decode_expression(encoded["expr"])
                if encoded.get("expr") is not None
                else None
            ),
            "sql": encoded.get("sql"),
        }
        if encoded.get("rewrites"):
            payload["rewrites"] = list(encoded["rewrites"])
    elif kind == "calculus":
        payload = {
            "kind": kind,
            "db": decode_database(encoded["db"]),
            "query": rc.Query(
                tuple(encoded["query"]["head"]),
                decode_formula(encoded["query"]["formula"]),
            ),
        }
    elif kind == "datalog":
        payload = {
            "kind": kind,
            "program": parse_program(encoded["program"])[0],
            "edb": decode_facts(encoded["edb"]),
            "queries": [
                _decode_query_atom(q) for q in encoded.get("queries", ())
            ],
        }
        if encoded.get("mutations"):
            payload["mutations"] = list(encoded["mutations"])
        if encoded.get("growth"):
            payload["growth"] = {
                predicate: [tuple(row) for row in rows]
                for predicate, rows in encoded["growth"].items()
            }
    elif kind == "schedule":
        payload = {"kind": kind, "schedule": parse_schedule(encoded["schedule"])}
    elif kind == "transactions-live":
        payload = {
            "kind": kind,
            "db": decode_database(encoded["db"]),
            "programs": [list(program) for program in encoded["programs"]],
            "order": list(encoded["order"]),
            "commit_order": list(encoded["commit_order"]),
        }
    else:
        raise ValueError("unknown corpus payload kind %r" % (kind,))
    return Case(
        data["family"],
        data["seed"],
        payload,
        data.get("constructs", ()),
        note=data.get("note", ""),
    )


# ---------------------------------------------------------------------------
# Directory layer
# ---------------------------------------------------------------------------


def save_case(case, directory, messages=(), name=None):
    """Write one corpus entry; returns the file path.

    The default file name is ``<family>-seed<seed>.json`` so re-finding
    the same case overwrites rather than accumulates.
    """
    os.makedirs(directory, exist_ok=True)
    data = encode_case(case)
    data["messages"] = list(messages)
    if name is None:
        name = "%s-seed%d" % (case.family, case.seed)
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_corpus(directory):
    """All corpus entries, sorted by file name: ``[(path, case, messages)]``."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            data = json.load(handle)
        entries.append((path, decode_case(data), data.get("messages", [])))
    return entries


def replay(case, oracles=None):
    """Re-run a corpus case through its family's oracle.

    Returns the divergence messages (empty list = the historical bug
    stays fixed).  A fresh oracle is built per call unless a prebuilt
    ``{family: oracle}`` mapping is supplied.
    """
    from .oracles import build_oracles

    if oracles is None:
        return build_oracles([case.family])[0].check(case)
    return oracles[case.family].check(case)
