"""Family and measure file formats.

A family file is JSON:

    {"schema_version": "1",
     "dim": 2,
     "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
     "labels": ["A", "B"]}

Entries are real numbers or [re, im] pairs.  Measures are JSON too:
``{"p": [...], "P": [[...]]}`` for Markov (p optional, computed from P when
missing) and ``{"period": [1, 2]}`` for periodic sequences.

Result records are written by ``to_json``, the one report encoder, and a
norm certificate is read back by ``certificate_from_json``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .extremal import NormCertificate
from .matrix_core import MatrixFamily
from .symbolic import MarkovMeasure, PeriodicSequence

SCHEMA_VERSION = "1"


class FamilyFileError(ValueError):
    """Malformed family file, with field-level diagnostics."""


def _decode_entry(entry, where: str) -> complex:
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if all(isinstance(x, (int, float)) for x in parts):
        try:
            return complex(*parts)
        except OverflowError:  # an integer beyond the float range
            raise FamilyFileError(f"{where}: integer entry is beyond the float range")
    raise FamilyFileError(f"{where}: entry must be a number or a [re, im] pair, "
                          f"got {entry!r}")


def parse_family(path: str | Path) -> MatrixFamily:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FamilyFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return family_from_dict(doc, source=str(path))


def family_from_dict(doc: dict, source: str = "<dict>") -> MatrixFamily:
    """The family of a parsed family document.

    Two paths give the same family.  Matrices that are all numbers, or all
    [re, im] pairs, of one square shape matching ``dim`` decode with one
    ``np.array`` call (``_uniform_stack``); any other input, mixed entries
    and every malformed document included, goes entry by entry
    (``_entrywise_stack``), which names the first bad field.
    """
    if not isinstance(doc, dict):
        raise FamilyFileError(f"{source}: top level must be an object")
    if str(doc.get("schema_version")) != SCHEMA_VERSION:
        raise FamilyFileError(
            f"{source}: schema_version must be \"{SCHEMA_VERSION}\", "
            f"got {doc.get('schema_version')!r}")
    matrices = doc.get("matrices")
    if not isinstance(matrices, list) or not matrices:
        raise FamilyFileError(f"{source}: 'matrices' must be a non-empty list")
    dim = doc.get("dim")
    mats = _uniform_stack(matrices, dim)
    if mats is None:
        mats = _entrywise_stack(matrices, dim, source)
    try:
        return MatrixFamily(mats)
    except ValueError as exc:
        raise FamilyFileError(f"{source}: {exc}")


def _uniform_stack(matrices: list, dim) -> np.ndarray | None:
    """A (K, d, d) stack of finite entries that are all numbers (bool, int
    or float) or all [re, im] pairs, with d equal to ``dim`` when given;
    None for anything else.  Pairs are laid out as complex128 entries
    bit for bit, as ``complex(re, im)`` builds them."""
    try:
        a = np.array(matrices)
    except ValueError:  # ragged
        return None
    if a.dtype.kind not in "biuf" or a.ndim not in (3, 4) or a.shape[1] != a.shape[2]:
        return None
    if a.ndim == 4:
        if a.shape[3] != 2:
            return None
        a = np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]
    if (dim is not None and a.shape[1] != dim) or not np.all(np.isfinite(a)):
        return None
    return a


def _entrywise_stack(matrices: list, dim, source: str) -> np.ndarray:
    # one entry at a time, so the first malformed field is named
    mats = []
    for mi, rows in enumerate(matrices, 1):
        if not isinstance(rows, list):
            raise FamilyFileError(f"{source}: matrix {mi} must be a list of rows")
        d = len(rows)
        if dim is not None and d != dim:
            raise FamilyFileError(
                f"{source}: matrix {mi} has {d} rows, expected dim {dim}")
        m = np.empty((d, d), dtype=np.complex128)
        for ri, row in enumerate(rows, 1):
            if not isinstance(row, list) or len(row) != d:
                raise FamilyFileError(
                    f"{source}: matrix {mi} row {ri} has length "
                    f"{len(row) if isinstance(row, list) else 'n/a'}, expected {d}")
            for ci, entry in enumerate(row, 1):
                m[ri - 1, ci - 1] = _decode_entry(
                    entry, f"{source}: matrix {mi} row {ri} col {ci}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise FamilyFileError(f"{source}: matrix {mi} has NaN/inf entries")
        mats.append(m)
    dims = {len(m) for m in mats}
    if len(dims) != 1:
        raise FamilyFileError(f"{source}: all members must share one "
                              f"dimension, got {sorted(dims)}")
    return np.stack(mats)


def family_to_dict(family: MatrixFamily, labels=None) -> dict:
    def enc(x: complex):
        return float(x.real) if x.imag == 0.0 else [float(x.real), float(x.imag)]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": family.dim,
        "matrices": [[[enc(x) for x in row] for row in m] for m in family.mats],
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def serialize_family(family: MatrixFamily, path: str | Path, labels=None) -> None:
    Path(path).write_text(json.dumps(family_to_dict(family, labels), indent=2))


def to_json(value):
    """A result record as JSON-ready data, field by field and recursively.

    Tuples become lists and numpy scalars numbers; real arrays become
    nested lists, and complex arrays (every entry, even a real one)
    ``[re, im]`` pairs.  A ``MatrixFamily`` becomes its matrices, and a
    dataclass field with ``metadata={"report": False}`` is left out.
    """
    if isinstance(value, MatrixFamily):
        return to_json(value.mats)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.metadata.get("report", True)}
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic, complex)):
        a = np.asarray(value)
        if np.iscomplexobj(a):
            a = np.stack([a.real, a.imag], axis=-1)
        return a.tolist()
    return value


def certificate_from_json(doc: dict) -> NormCertificate:
    """The ``NormCertificate`` that ``to_json`` wrote as ``doc``.

    Its arrays are matrices, so one with a third axis holds ``to_json``'s
    ``[re, im]`` pairs and is complex.
    """
    def array(name):
        if doc.get(name) is None:
            return None
        a = np.asarray(doc[name], dtype=np.float64)
        return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a

    return NormCertificate(dim=doc["dim"], kind=doc.get("kind", "polytope"),
                           vertices=array("vertices"),
                           transform=array("transform"),
                           margin=doc.get("margin", 0.0),
                           status=doc.get("status", "candidate"))


def parse_markov(path: str | Path) -> MarkovMeasure:
    doc = json.loads(Path(path).read_text())
    if "P" not in doc:
        raise FamilyFileError(f"{path}: Markov measure needs a 'P' matrix")
    if "p" in doc:
        return MarkovMeasure(np.asarray(doc["p"], float), np.asarray(doc["P"], float))
    return MarkovMeasure.from_transition(np.asarray(doc["P"], float))


def parse_periodic(spec: str, alphabet_size: int) -> PeriodicSequence:
    """Accepts either a JSON file with {"period": [...]} or an inline
    comma-separated word like "1,2"."""
    p = Path(spec)
    if p.exists():
        doc = json.loads(p.read_text())
        period = doc.get("period")
        if not isinstance(period, list):
            raise FamilyFileError(f"{spec}: periodic sequence needs a 'period' list")
    else:
        try:
            period = [int(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError:
            raise FamilyFileError(f"cannot parse periodic word {spec!r}")
    return PeriodicSequence(alphabet_size, tuple(period))


def parse_word(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise FamilyFileError(f"cannot parse word {spec!r}; expected e.g. 1,2")
