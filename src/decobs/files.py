"""JSON file formats for problems, rules, morphisms, solutions and verdicts.

Strings serialize as arrays of token texts (the empty string is the empty
array).  Fusion-rule files carry exactly the fields type, agents, decisions,
domain and output.  Morphism files are arrays of [source-key, target-key]
pairs, where a string node's key is its joined token text and a decision
node's key is the array of its decision texts.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any

from .errors import FileFormatError
from .graph import ColoredGraph
from .model import (
    ControlProblem,
    FusionRule,
    ObservationFunction,
    ObservationProblem,
    ObservationTable,
    Projection,
    Str,
    _clashes,
)
from .morphism import Morphism, Solution

RULE_TYPE = "fusion_rule"
_RULE_FIELDS = {"type", "agents", "decisions", "domain", "output"}


def to_json(obj: Any) -> str:
    """The JSON text json.dumps gives ``obj`` with an indent of 2 and
    non-ASCII characters kept, byte for byte, plus a final newline.  Object
    keys are text, as in every object decobs writes; any other key raises
    TypeError.

    json.dumps drops to its pure-Python encoder whenever ``indent`` is set, so
    the layout is rendered here instead, a column of values at a time: each
    column's strings in one C-level pass, each array of equal-length rows by
    rendering its columns and filling one row template per row, and each
    array object shared by several rows once.
    """
    return _value(obj, 0) + "\n"


_encode_str = json.encoder.encode_basestring  # ensure_ascii=False string escaping


def _value(v: Any, level: int) -> str:
    """JSON text of one value whose opening line is indented ``level`` steps."""
    if isinstance(v, str):
        return _encode_str(v)
    if isinstance(v, (list, tuple)):
        return _array(v, level)
    if isinstance(v, dict):
        return _object(v, level)
    return json.dumps(v)  # numbers, booleans and null on the C path; TypeError otherwise


def _array(items: list | tuple, level: int) -> str:
    return _block("[", _column(items, level + 1), "]", level) if items else "[]"


def _object(obj: dict, level: int) -> str:
    if not obj:
        return "{}"
    keys = map(_encode_str, obj)  # TypeError on a key that is not text
    values = _column(list(obj.values()), level + 1)
    return _block("{", map("{}: {}".format, keys, values), "}", level)


def _block(opening: str, texts, closing: str, level: int) -> str:
    """A non-empty array or object, one member text per line."""
    step = "\n" + "  " * (level + 1)
    return opening + step + ("," + step).join(texts) + "\n" + "  " * level + closing


def _column(values: list | tuple, level: int) -> list[str]:
    """JSON text of each value, all of them at indent ``level``."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_encode_str, values))
    if not kinds <= {list, tuple}:
        return [_value(v, level) for v in values]
    distinct = dict(zip(map(id, values), values))
    if len(distinct) < len(values):  # render each shared array once
        texts = dict(zip(distinct, _column(list(distinct.values()), level)))
        return list(map(texts.__getitem__, map(id, values)))
    lengths = set(map(len, values))
    if len(lengths) != 1 or 0 in lengths:  # ragged, or all empty
        return list(map(_array, values, repeat(level)))
    # Rows of equal length: render each column once, then lay out every row
    # with one template whose fixed text holds no braces.
    row = _block("[", ["{}"] * lengths.pop(), "]", level)
    return list(map(row.format, *(_column(col, level + 1) for col in zip(*values))))


def read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, or nesting too deep
        raise FileFormatError(f"{path}: not valid JSON ({e})") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FileFormatError(message)


def _is_int(value: Any) -> bool:
    """JSON integers only: ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_texts(obj: Any) -> bool:
    """A JSON array of texts UTF-8 can spell, checked by one C-level join and
    its encoding instead of a check per element: join raises TypeError on an
    item that is not text, encode UnicodeEncodeError on a lone surrogate."""
    if not isinstance(obj, list):
        return False
    try:
        "".join(obj).encode()
    except (TypeError, UnicodeEncodeError):
        return False
    return True


def _are_strings(objs: list) -> bool:
    """Every item is an array of texts, checked by C-level passes over all
    items at once."""
    return all(map(isinstance, objs, repeat(list))) and _is_texts(
        list(chain.from_iterable(objs))
    )


def _is_table(entries: list) -> bool:
    """Every entry is a [string, label] pair with a text label, checked by
    C-level passes over the whole table."""
    return (
        all(map(isinstance, entries, repeat(list)))
        and set(map(len, entries)) <= {2}
        and _are_strings(list(map(itemgetter(0), entries)))
        and _is_texts(list(map(itemgetter(1), entries)))
    )


def _string_from(obj: Any, where: str) -> Str:
    _require(_is_texts(obj), f"{where}: a string must be an array of token texts, got {obj!r}")
    return tuple(obj)


def _language_from(obj: Any, where: str) -> list[list[str]]:
    """``obj`` once it is checked to be an array of strings; the
    constructors it is passed to turn each string into a tuple."""
    _require(isinstance(obj, list), f"{where}: expected an array of strings")
    if not _are_strings(obj):
        for s in obj:  # raises at the first bad string
            _string_from(s, where)
    return obj


def _observation_from(obj: Any, where: str) -> ObservationFunction:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "projection":
        observable = obj.get("observable")
        _require(_is_texts(observable), f"{where}: 'observable' must be an array of tokens")
        return Projection(observable)
    if kind == "table":
        entries = obj.get("map")
        _require(isinstance(entries, list), f"{where}: 'map' must be an array of pairs")
        if not _is_table(entries):
            for pair in entries:  # raises at the first bad entry
                _require(
                    isinstance(pair, list) and len(pair) == 2,
                    f"{where}: table entries must be [string, label] pairs",
                )
                _string_from(pair[0], where)
                _require(_is_texts([pair[1]]), f"{where}: table labels must be text")
        return ObservationTable(entries)
    raise FileFormatError(f"{where}: unknown observation kind {kind!r}")


def _observation_to(fn: ObservationFunction) -> dict:
    if isinstance(fn, Projection):
        return {"kind": "projection", "observable": sorted(fn.observable)}
    return {"kind": "table", "map": [[list(s), label] for s, label in fn.entries]}


def parse_problem(obj: Any) -> ObservationProblem:
    """The problem a checked JSON object describes.  Arrays are handed to
    the constructors as they are; the constructors normalise them."""
    _require(isinstance(obj, dict), "problem file must hold a JSON object")
    ptype = obj.get("type")
    _require(
        ptype in ("observation", "control"),
        f"problem 'type' must be 'observation' or 'control', got {ptype!r}",
    )
    agents = obj.get("agents")
    _require(_is_int(agents), "'agents' must be an integer")
    alphabet = obj.get("alphabet")
    _require(_is_texts(alphabet), "'alphabet' must be an array of tokens")
    big_l = _language_from(obj.get("L"), "L")
    big_k = _language_from(obj.get("K"), "K")
    observations = obj.get("observations")
    _require(isinstance(observations, list), "'observations' must be an array")
    functions = [_observation_from(o, f"observations[{i}]") for i, o in enumerate(observations)]
    fields = dict(n=agents, alphabet=alphabet, L=big_l, K=big_k, P=functions)
    if ptype == "observation":
        return ObservationProblem(**fields)
    controllable = _language_from(obj.get("controllable"), "controllable")
    return ControlProblem(**fields, controllable=controllable)


def problem_to_obj(p: ObservationProblem) -> dict:
    obj: dict[str, Any] = {"type": "observation", "agents": p.n, "alphabet": list(p.alphabet)}
    if isinstance(p, ControlProblem):
        obj["type"] = "control"
        obj["controllable"] = [sorted(c) for c in p.controllable]
    obj["L"] = [list(s) for s in p.L]
    obj["K"] = [list(s) for s in p.K]
    obj["observations"] = [_observation_to(fn) for fn in p.P]
    return obj


def parse_rule(obj: Any) -> FusionRule:
    _require(isinstance(obj, dict), "rule file must hold a JSON object")
    _require(
        set(obj) == _RULE_FIELDS,
        f"rule files carry exactly the fields {sorted(_RULE_FIELDS)}, got {sorted(obj)}",
    )
    _require(obj["type"] == RULE_TYPE, f"rule 'type' must be {RULE_TYPE!r}")
    _require(_is_int(obj["agents"]), "'agents' must be an integer")
    decisions = obj["decisions"]
    _require(_is_texts(decisions), "'decisions' must be an array of decision texts")
    domain = _language_from(obj["domain"], "domain")
    output = obj["output"]
    _require(
        isinstance(output, list) and all(_is_int(o) and o in (0, 1) for o in output),
        "'output' must be an array of 0/1 parallel to the domain",
    )
    try:
        return FusionRule(n=obj["agents"], decisions=decisions, domain=domain, outputs=output)
    except ValueError as e:
        raise FileFormatError(str(e)) from None


def rule_to_obj(r: FusionRule) -> dict:
    return {
        "type": RULE_TYPE,
        "agents": r.n,
        "decisions": list(r.decisions),
        "domain": [list(combo) for combo in r.domain],
        "output": list(r.outputs),
    }


def _node_keys(g: ColoredGraph) -> list:
    """The written key of every node of ``g``, in node order: a fresh array
    per decision node when ``g.decisions`` is set, else each string's joined
    token text.  Joined texts can collide (``a b`` and ``ab``), and then, in
    a source or a target alike, FileFormatError names the first repeated one."""
    if g.decisions is not None:
        return list(map(list, g.keys))
    keys = list(map("".join, g.keys))
    for _, v in _clashes(keys, range(len(keys)))[:1]:  # one text, two nodes
        raise FileFormatError(f"node keys are ambiguous: {keys[v]!r} names two different nodes")
    return keys


def _key_lookup(g: ColoredGraph) -> dict:
    """Node index by written key, with arrays read back as tuples."""
    return {tuple(k) if isinstance(k, list) else k: i for i, k in enumerate(_node_keys(g))}


def _node_index(lookup: dict, raw: Any, side: str) -> int:
    """The node a written key names; a key no node has, an unhashable one
    included, is an unknown ``side`` node."""
    try:
        return lookup[tuple(raw) if isinstance(raw, list) else raw]
    except (KeyError, TypeError):
        raise FileFormatError(f"unknown {side} node {raw!r}") from None


def morphism_to_obj(m: Morphism) -> list:
    source_keys = _node_keys(m.source)  # first, so a source collision is named first
    target_keys = _node_keys(m.target)  # rows mapped to one node share its key
    return list(map(list, zip(source_keys, map(target_keys.__getitem__, m.mapping))))


def parse_morphism(obj: Any, source: ColoredGraph, target: ColoredGraph) -> Morphism:
    _require(isinstance(obj, list), "a morphism file must hold a JSON array of pairs")
    src_lookup = _key_lookup(source)
    tgt_lookup = _key_lookup(target)
    mapping = [-1] * len(source)
    for pair in obj:
        _require(
            isinstance(pair, list) and len(pair) == 2,
            "morphism entries must be [source-key, target-key] pairs",
        )
        raw_s, raw_t = pair
        v = _node_index(src_lookup, raw_s, "source")
        t = _node_index(tgt_lookup, raw_t, "target")
        _require(mapping[v] == -1, f"source node {raw_s!r} mapped twice")
        mapping[v] = t
    _require(all(t >= 0 for t in mapping), "morphism does not cover every source node")
    return Morphism(source, target, tuple(mapping))


def load_morphism(path: str | Path, source: ColoredGraph, target: ColoredGraph) -> Morphism:
    return parse_morphism(read_json(path), source, target)


def _label_to(label: Any) -> Any:
    return list(label) if isinstance(label, tuple) else label


def _label_from(raw: Any, where: str) -> Any:
    """Table labels are text; projection labels are strings."""
    return raw if _is_texts([raw]) else _string_from(raw, where)


def solution_to_obj(sol: Solution) -> list:
    """A JSON array of [label, decision] pairs per table of the tuple ``sol``."""
    return [
        [[_label_to(label), decision] for label, decision in table.items()]
        for table in sol
    ]


def parse_solution(obj: Any) -> Solution:
    """The tuple of per-agent decision tables a solution file holds."""
    _require(
        isinstance(obj, list),
        "a solution file must hold a JSON array with one table per agent",
    )
    parsed = []
    for i, table in enumerate(obj):
        _require(isinstance(table, list), f"tables[{i}] must be an array of pairs")
        entries = {}
        for pair in table:
            _require(
                isinstance(pair, list) and len(pair) == 2,
                f"tables[{i}] entries must be [label, decision] pairs",
            )
            _require(_is_texts([pair[1]]), f"tables[{i}]: decisions must be text")
            label = _label_from(pair[0], f"tables[{i}] label")
            _require(
                entries.setdefault(label, pair[1]) == pair[1],
                f"tables[{i}]: label {pair[0]!r} has two decisions",
            )
        parsed.append(entries)
    return tuple(parsed)


def bijection_to_obj(rule: FusionRule, p: ObservationProblem) -> list:
    return [[list(combo), list(s)] for combo, s in zip(rule.domain, p.L)]


def sanitize_token(text: str) -> str:
    """Filesystem-safe rendering of a token; non-alphanumeric characters are
    spelled as their code points."""
    return "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "-_") else f"u{ord(ch):04x}"
        for ch in text
    )
