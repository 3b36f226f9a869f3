"""JSON formats for automata, presentations, certificates, reports; DOT output.

Scalars travel as decimal strings ("3", "-7/2") so nothing is ever
rounded; fields are "0" for the rationals or "p:<prime>".  Parsers
reject malformed data with a FormatError naming the offending path.
Emitters build every dict in a fixed key order, so serializing the same
object twice gives byte-identical text.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .decompose import DecompositionReport
from .endo import Certificate
from .fields import FieldSpec, QQ, gf
from .linalg import DenseMatrix, _decimals, _from_fractions, _marked, _qvector
from .modules import ActionGraph, CyclicModule, render_vector
from .perms import PermutationPresentation
from .wfa import WeightedAutomaton


class FormatError(ValueError):
    """Malformed serialized data, with the JSON path that failed."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# scalars and fields


def field_to_str(field: FieldSpec) -> str:
    if field.characteristic == 0:
        return "0"
    return f"p:{field.characteristic}"


def field_from_str(text, path: str = "field") -> FieldSpec:
    if not isinstance(text, str):
        raise FormatError(path, f"expected a string, got {type(text).__name__}")
    if text == "0":
        return QQ
    if text.startswith("p:"):
        digits = text[2:]
        if not digits.isdigit():
            raise FormatError(path, f"bad prime in {text!r}")
        try:
            return gf(int(digits))
        except ValueError as err:
            raise FormatError(path, str(err)) from None
    raise FormatError(path, f"expected \"0\" or \"p:<prime>\", got {text!r}")


def scalar_from_json(field: FieldSpec, value, path: str):
    if isinstance(value, bool):
        raise FormatError(path, "booleans are not scalars")
    if isinstance(value, int):
        return field.scalar(value)
    if isinstance(value, str):
        try:
            return field.parse(value)
        except ValueError as err:
            raise FormatError(path, str(err)) from None
    raise FormatError(path, f"expected a scalar string, got {type(value).__name__}")


def vector_to_json(v) -> list:
    """Decimal strings of a vector of FieldScalars or of a raw vector."""
    return _decimals(v)


def _raw_scalar_from_json(field: FieldSpec, value, path: str):
    """The value of a scalar, raw over GF(p) and an int or a Fraction over Q.

    Integer literals skip the Fraction parse.
    """
    if isinstance(value, str) and "/" not in value:
        try:
            n = int(value)
        except ValueError:
            pass  # scalar_from_json raises it with the message of FieldSpec.parse
        else:
            p = field.characteristic
            return n % p if p else n
    return scalar_from_json(field, value, path).value


def _raw_vector_from_json(field: FieldSpec, data, length: Optional[int], path: str) -> list:
    """The raw vector of a list of scalars; over Q its denominators are cleared here."""
    if not isinstance(data, list):
        raise FormatError(path, f"expected a list, got {type(data).__name__}")
    if length is not None and len(data) != length:
        raise FormatError(path, f"expected length {length}, got {len(data)}")
    p = field.characteristic
    try:
        # _raw_scalar_from_json's fast path for the whole vector: only strings join, and none has a "/"
        if "/" not in "".join(data):
            ints = list(map(int, data))
            return [n % p for n in ints] if p else _qvector(ints)
    except (TypeError, ValueError):
        pass  # the loop below raises it with the path of the entry
    values = [_raw_scalar_from_json(field, x, f"{path}[{i}]") for i, x in enumerate(data)]
    return values if p else _from_fractions(values)


def matrix_to_json(m: DenseMatrix) -> list:
    return [_decimals(row, m._den) for row in m._raw]


def matrix_from_json(field: FieldSpec, data, rows: int, cols: int, path: str) -> DenseMatrix:
    if not isinstance(data, list):
        raise FormatError(path, f"expected a list of rows, got {type(data).__name__}")
    if len(data) != rows:
        raise FormatError(path, f"expected {rows} rows, got {len(data)}")
    raw = [_raw_vector_from_json(field, row, cols, f"{path}[{i}]") for i, row in enumerate(data)]
    return DenseMatrix._from_vectors(field, raw, cols)


# ---------------------------------------------------------------------------
# weighted automata


def automaton_to_json(a: WeightedAutomaton) -> dict:
    return {
        "field": field_to_str(a.field),
        "alphabet": list(a.alphabet),
        "dim": a.dim,
        "lambda": vector_to_json(a._raw_lam),
        "mu": {s: matrix_to_json(a.mu[s]) for s in a.alphabet},
        "gamma": vector_to_json(a._raw_gamma),
    }


def automaton_from_json(obj) -> WeightedAutomaton:
    if not isinstance(obj, dict):
        raise FormatError("$", "expected a JSON object")
    for key in ("field", "alphabet", "dim", "lambda", "mu", "gamma"):
        if key not in obj:
            raise FormatError(key, "missing")
    field = field_from_str(obj["field"])
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise FormatError("alphabet", "expected a list of strings")
    if len(set(alphabet)) != len(alphabet):
        raise FormatError("alphabet", "labels must be distinct")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise FormatError("dim", "expected a nonnegative integer")
    lam = _marked(_raw_vector_from_json(field, obj["lambda"], dim, "lambda"))
    gamma = _marked(_raw_vector_from_json(field, obj["gamma"], dim, "gamma"))
    mu_obj = obj["mu"]
    if not isinstance(mu_obj, dict):
        raise FormatError("mu", "expected an object keyed by letters")
    if set(mu_obj) != set(alphabet):
        raise FormatError("mu", "keys must match the alphabet exactly")
    mu = {
        s: matrix_from_json(field, mu_obj[s], dim, dim, f"mu.{s}") for s in alphabet
    }
    return WeightedAutomaton(field, alphabet, lam, mu, gamma)


# ---------------------------------------------------------------------------
# permutation presentations


def presentation_from_json(obj) -> PermutationPresentation:
    if not isinstance(obj, dict):
        raise FormatError("$", "expected a JSON object")
    for key in ("degree", "generators"):
        if key not in obj:
            raise FormatError(key, "missing")
    degree = obj["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise FormatError("degree", "expected a positive integer")
    gens = obj["generators"]
    if not isinstance(gens, dict):
        raise FormatError("generators", "expected an object of label -> index array")
    pairs = []
    for label, arr in gens.items():
        path = f"generators.{label}"
        if not isinstance(arr, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in arr
        ):
            raise FormatError(path, "expected a list of integers")
        pairs.append((label, arr))
    try:
        return PermutationPresentation(degree, pairs)
    except ValueError as err:
        raise FormatError("generators", str(err)) from None


# ---------------------------------------------------------------------------
# certificates and reports


def certificate_to_json(cert: Certificate) -> dict:
    out = {
        "verdict": cert.verdict,
        "mode": cert.mode,
        "element": None if cert.element is None else vector_to_json(cert.element),
        "parts": None if cert.parts is None else [vector_to_json(v) for v in cert.parts],
        "diagnostics": {k: cert.diagnostics[k] for k in sorted(cert.diagnostics)},
    }
    if cert.radical:
        out["radical"] = [vector_to_json(j) for j in cert.radical]
    return out


def module_to_json(m: CyclicModule, names: Optional[Sequence[str]] = None) -> dict:
    out = {
        "dim": m.dim,
        "generator": vector_to_json(m._raw_generator),
        "basis_words": [list(w) for w in m.basis_words],
        "basis": [vector_to_json(v) for v in m._raw_vectors],
    }
    if names is not None:
        out["generator_display"] = render_vector(m._raw_generator, names)
        out["basis_display"] = [render_vector(v, names) for v in m._raw_vectors]
    return out


def report_to_json(report: DecompositionReport, names: Optional[Sequence[str]] = None) -> dict:
    m = report.module
    return {
        "field": field_to_str(m.field),
        "ambient_dim": m.action.dim,
        "generators": list(m.action.labels),
        "module": module_to_json(m, names),
        "signature": list(report.signature),
        "fully_decomposed": report.fully_decomposed,
        "undecided_count": report.undecided_count,
        "summands": [
            dict(module_to_json(block, names), certificate=certificate_to_json(cert))
            for block, cert in zip(report.summands, report.certificates)
        ],
        "split_certificates": [certificate_to_json(c) for c in report.split_certificates],
    }


def to_text(obj) -> str:
    """Canonical JSON text: two-space indent, preserved key order, one newline.

    The text is exactly json.dumps(obj, indent=2) + "\\n", written by a
    small recursive writer: with an indent, json.dumps runs its pure-Python
    encoder.  Strings are escaped by json.encoder.encode_basestring_ascii,
    a list of strings is joined in one step, tuples are written as lists, and anything but
    dicts with str keys, lists, tuples, str, int, float, bool and None
    raises TypeError.
    """
    parts = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(obj, newline: str, out):
    """Append the json.dumps(indent=2) text of obj, at the indent of newline, through out."""
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        out(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        try:
            # a non-string item makes the escaper raise TypeError
            out("[" + inner + ("," + inner).join(map(encode_basestring_ascii, obj)) + newline + "]")
            return
        except TypeError:
            pass
        out("[")
        for i, item in enumerate(obj):
            out("," + inner if i else inner)
            _write(item, inner, out)
        out(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        out("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(("," + inner if i else inner) + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    """A float as json writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# ---------------------------------------------------------------------------
# DOT


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(graph: ActionGraph, name: str = "module") -> str:
    """Deterministic DOT digraph; edge labels carry the generator name and
    a ",<coeff>" suffix for coefficients other than 1 (none over GF(2))."""
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(graph.node_labels):
        lines.append(f'  n{i} [label="{_dot_escape(label)}"];')
    for j, i, gen, coeff in graph.edges:
        if coeff == 1:
            text = gen
        else:
            text = f"{gen},{coeff}"
        lines.append(f'  n{j} -> n{i} [label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
