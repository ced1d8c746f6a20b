"""Signatures, finite relational structures, and structure-level algebra.

All values are immutable after construction and every operation is a pure
function, so anything here may be called concurrently.  The universe keeps
its construction order; serialization sorts elements and tuples so emitted
files are canonical.  Nothing here searches: isomorphism, like
homomorphism, is decided in :mod:`epquery.homomorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EpqError, ParseError, SignatureMismatch


@dataclass(frozen=True, order=True)
class RelationSymbol:
    """A relation name together with its arity (arity >= 1)."""

    name: str
    arity: int


class Signature:
    """An immutable collection of relation symbols with distinct names."""

    def __init__(self, symbols=()):
        ordered = tuple(sorted(set(symbols)))
        names = [sym.name for sym in ordered]
        if len(names) != len(set(names)):
            raise EpqError("signature has duplicate symbol names")
        for sym in ordered:
            if sym.arity < 1:
                raise EpqError(f"symbol {sym.name!r} has arity {sym.arity}; arity must be >= 1")
            if not sym.name or any(ch.isspace() for ch in sym.name) or "/" in sym.name or "#" in sym.name:
                raise EpqError(f"bad symbol name {sym.name!r}")
        self.symbols = ordered
        self._arities = {sym.name: sym.arity for sym in ordered}

    def arity(self, name):
        try:
            return self._arities[name]
        except KeyError:
            raise EpqError(f"unknown relation symbol {name!r}") from None

    @property
    def names(self):
        return tuple(sym.name for sym in self.symbols)

    def __contains__(self, name):
        return name in self._arities

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        inner = " ".join(f"{s.name}/{s.arity}" for s in self.symbols)
        return f"Signature({inner})"


@dataclass(frozen=True, eq=True)
class Structure:
    """A finite relational structure: signature, ordered universe, relations.

    ``relations`` maps symbol names to frozensets of element tuples.  Symbols
    missing from the input mapping default to the empty relation; unknown
    names are kept so that :func:`validate` can report them.
    """

    signature: Signature
    universe: tuple
    relations: dict

    def __post_init__(self):
        seen = set()
        ordered = []
        for elem in self.universe:
            if elem not in seen:
                seen.add(elem)
                ordered.append(elem)
        object.__setattr__(self, "universe", tuple(ordered))
        rels = {}
        for name, tuples in (self.relations or {}).items():
            rels[name] = frozenset(tuple(t) for t in tuples)
        for sym in self.signature:
            rels.setdefault(sym.name, frozenset())
        object.__setattr__(self, "relations", rels)

    __hash__ = None


def _token_problems(token, role):
    problems = []
    if not isinstance(token, str) or not token:
        problems.append(f"empty {role} token")
        return problems
    if any(ch.isspace() for ch in token):
        problems.append(f"{role} token {token!r} contains whitespace")
    if "#" in token:
        problems.append(f"{role} token {token!r} contains '#'")
    return problems


def validate(structure):
    """Return a list of invariant violations; an empty list means well-formed."""
    problems = []
    if not structure.universe:
        problems.append("empty universe")
    for elem in structure.universe:
        problems.extend(_token_problems(elem, "element"))
    members = set(structure.universe)
    for name in sorted(structure.relations):
        tuples = structure.relations[name]
        if name not in structure.signature:
            problems.append(f"relation {name!r} is not in the signature")
            continue
        arity = structure.signature.arity(name)
        for t in sorted(tuples):
            if len(t) != arity:
                problems.append(
                    f"arity violation: {name} tuple {t!r} has length {len(t)}, expected {arity}"
                )
            for entry in t:
                if entry not in members:
                    problems.append(f"tuple entry {entry!r} of {name} is not in the universe")
    return problems


def _escape_part(token):
    return token.replace("\\", "\\\\").replace("|", "\\|")


def pair_token(left, right):
    """Deterministic element name for a product pair; '|' inside parts is escaped."""
    return _escape_part(left) + "|" + _escape_part(right)


def product(a, b):
    """Componentwise product of two similar structures.

    A tuple belongs to a product relation exactly when both of its coordinate
    projections belong to the factor relations.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("product needs similar structures")
    universe = tuple(pair_token(x, y) for x in a.universe for y in b.universe)
    relations = {}
    for sym in a.signature:
        out = set()
        for ta in a.relations[sym.name]:
            for tb in b.relations[sym.name]:
                out.add(tuple(pair_token(x, y) for x, y in zip(ta, tb)))
        relations[sym.name] = out
    return Structure(a.signature, universe, relations)


def induced_substructure(a, subset):
    """Restrict ``a`` to ``subset``, keeping exactly the tuples inside it."""
    wanted = set(subset)
    if not wanted:
        raise EpqError("substructure needs a non-empty element subset")
    members = set(a.universe)
    stray = wanted - members
    if stray:
        raise EpqError(f"elements not in the universe: {sorted(stray)}")
    universe = tuple(e for e in a.universe if e in wanted)
    relations = {
        name: {t for t in tuples if all(x in wanted for x in t)}
        for name, tuples in a.relations.items()
    }
    return Structure(a.signature, universe, relations)


def repetition_pattern(args):
    """Distinct entries of ``args`` in first-occurrence order, and the index
    among them of each position's entry: ``(x, y, x)`` gives ``([x, y], (0, 1, 0))``."""
    distinct = []
    pattern = []
    index = {}
    for x in args:
        if x not in index:
            index[x] = len(distinct)
            distinct.append(x)
        pattern.append(index[x])
    return distinct, tuple(pattern)


def project_rows(rows, pattern):
    """The rows that repeat a value wherever ``pattern`` repeats an index,
    cut down to one column per index; first-seen order, without duplicates."""
    kept = {}
    width = max(pattern) + 1
    for row in rows:
        proj = [None] * width
        for p, val in zip(pattern, row):
            if proj[p] is None:
                proj[p] = val
            elif proj[p] != val:
                break
        else:
            kept[tuple(proj)] = None
    return list(kept)


def parse_structure(text):
    """Parse the line-oriented structure format.

    ::

        signature NAME/ARITY NAME/ARITY ...
        universe e1 e2 ...
        tuple NAME e1 ... ek

    '#' starts a comment; unknown symbols and out-of-universe elements in
    tuple lines are errors rather than silently added.
    """
    sig = None
    universe = None
    relations = {}
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if sig is None:
            if head != "signature":
                raise ParseError("expected a 'signature' line first", lineno)
            symbols = []
            for item in parts[1:]:
                name, sep, arity_text = item.rpartition("/")
                if not sep or not name:
                    raise ParseError(f"malformed symbol {item!r}; expected NAME/ARITY", lineno)
                try:
                    arity = int(arity_text)
                except ValueError:
                    raise ParseError(f"bad arity in {item!r}", lineno) from None
                symbols.append(RelationSymbol(name, arity))
            try:
                sig = Signature(symbols)
            except EpqError as exc:
                raise ParseError(str(exc), lineno) from None
        elif universe is None:
            if head != "universe":
                raise ParseError("expected a 'universe' line after the signature", lineno)
            if len(parts) == 1:
                raise ParseError("empty universe", lineno)
            universe = dict.fromkeys(parts[1:])  # ordered, with constant-time lookups
        elif head == "tuple":
            if len(parts) < 2:
                raise ParseError("tuple line needs a symbol name", lineno)
            name = parts[1]
            if name not in sig:
                raise ParseError(f"unknown symbol {name!r}", lineno)
            entries = parts[2:]
            if len(entries) != sig.arity(name):
                raise ParseError(
                    f"symbol {name!r} has arity {sig.arity(name)}, got {len(entries)} entries",
                    lineno,
                )
            for entry in entries:
                if entry not in universe:
                    raise ParseError(f"element {entry!r} is not in the universe", lineno)
            relations.setdefault(name, set()).add(tuple(entries))
        else:
            raise ParseError(f"unexpected line starting with {head!r}", lineno)
    if sig is None or universe is None:
        raise ParseError("structure text needs 'signature' and 'universe' lines", last_line or 1)
    return Structure(sig, tuple(universe), relations)


def format_structure(s):
    """Canonical serialization: symbols, elements, and tuples all sorted."""
    lines = ["signature " + " ".join(f"{sym.name}/{sym.arity}" for sym in s.signature)]
    lines.append("universe " + " ".join(sorted(s.universe)))
    for sym in s.signature:
        for t in sorted(s.relations[sym.name]):
            lines.append("tuple " + sym.name + " " + " ".join(t))
    return "\n".join(lines) + "\n"


def digraph_signature():
    """The one-symbol signature of plain digraphs: a binary E."""
    return Signature([RelationSymbol("E", 2)])


def labelled_signature(n):
    """Signature of labelled digraphs: binary E plus unary labels L1..Ln."""
    if n < 0:
        raise EpqError("label count must be non-negative")
    symbols = [RelationSymbol("E", 2)]
    symbols += [RelationSymbol(f"L{i}", 1) for i in range(1, n + 1)]
    return Signature(symbols)


def labelled_rank(signature):
    """Recover n from a labelled-digraph signature, or raise if the shape is wrong."""
    names = set(signature.names)
    if "E" not in names or signature.arity("E") != 2:
        raise EpqError("labelled digraphs need a binary symbol E")
    labels = names - {"E"}
    n = len(labels)
    if labels != {f"L{i}" for i in range(1, n + 1)}:
        raise EpqError("label symbols must be exactly L1..Ln")
    if any(signature.arity(label) != 1 for label in labels):
        raise EpqError("label symbols must be unary")
    return n
