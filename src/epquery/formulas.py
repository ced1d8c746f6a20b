"""Formula ASTs, the sentence grammar, and the query/structure bridges.

Grammar (whitespace-insensitive, '#' starts a comment)::

    formula := 'exists' VAR '.' formula | 'forall' VAR '.' formula
             | 'not' formula | disj
    disj    := conj ('|' conj)*
    conj    := unit ('&' unit)*
    unit    := NAME '(' VAR (',' VAR)* ')' | VAR '=' VAR | '(' formula ')'

'&' binds tighter than '|'; quantifier and 'not' scope extends maximally to
the right.  Identifiers are runs of letters, digits, and ``_ ^ @ '`` that
are not the keywords exists/forall/not.

One walk, ``_scan``, answers ``classify`` and ``formula_signature`` and the
one sentence check ``_checked``: fragment, closedness, signature fit.
``structure_of_pp`` renames bound variables apart in the walk that collects
the induced structure.  Entailment, which needs homomorphisms, is in
``normalize``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import EpqError, FragmentError, ParseError, SignatureMismatch
from .structures import RelationSymbol, Signature, Structure


class _Node:
    """``==``, ``hash`` and ``repr`` of the formula nodes, without recursion.

    The generated dataclass methods recurse into subformulas and so fail on
    deep nests.  These compare and hash the flat preorder key below, and
    ``repr`` runs on ``walk``; its text is the dataclass one.  Nodes keep
    their fields in slots, without an instance ``__dict__``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _preorder_key(self) == _preorder_key(other)

    def __hash__(self):
        return hash(_preorder_key(self))

    def __repr__(self):
        return walk(_node_repr(self))


def _preorder_key(f):
    # Per node in preorder: its type, subformula count and other fields; a
    # value that is not a node is its own entry.
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if not isinstance(g, _Node):
            out.append(g)
            continue
        kids = children(g)
        own = (getattr(g, x.name) for x in fields(g) if x.name not in ("child", "children"))
        out.append((type(g), len(kids), *own))
        stack.extend(reversed(kids))
    return tuple(out)


def _node_repr(g):
    if not isinstance(g, _Node):
        return repr(g)
    parts = []
    for field in fields(g):
        value = getattr(g, field.name)
        if field.name == "child":
            text = yield _node_repr(value)
        elif field.name == "children" and type(value) is tuple:
            texts = []
            for c in value:
                texts.append((yield _node_repr(c)))
            text = f"({', '.join(texts)}{',' if len(texts) == 1 else ''})"
        else:
            text = repr(value)
        parts.append(f"{field.name}={text}")
    return f"{type(g).__qualname__}({', '.join(parts)})"


_node = dataclass(frozen=True, eq=False, repr=False, slots=True)


@_node
class Atom(_Node):
    symbol: str
    args: tuple


@_node
class Equality(_Node):
    left: str
    right: str


@_node
class And(_Node):
    children: tuple


@_node
class Or(_Node):
    children: tuple


@_node
class Not(_Node):
    child: object


@_node
class Exists(_Node):
    var: str
    child: object


@_node
class Forall(_Node):
    var: str
    child: object


def _flatten(kind, parts, name):
    flat = []
    for part in parts:
        if isinstance(part, kind):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        raise EpqError(f"empty {name}")
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def conj(parts):
    """N-ary conjunction; nested conjunctions are flattened, singletons collapse."""
    return _flatten(And, parts, "conjunction")


def disj(parts):
    """N-ary disjunction; nested disjunctions are flattened, singletons collapse."""
    return _flatten(Or, parts, "disjunction")


# The traversal below tests exact node types: every formula walk goes
# through it, and identity tests cost a fraction of isinstance chains.


def children(f):
    """Immediate subformulas of a formula node, left to right."""
    kind = type(f)
    if kind is Atom or kind is Equality:
        return ()
    if kind is And or kind is Or:
        return f.children
    if kind is Exists or kind is Forall or kind is Not:
        return (f.child,)
    raise EpqError(f"not a formula node: {f!r}")


def rebuild(f, kids):
    """The node ``f`` with its immediate subformulas replaced by ``kids``."""
    kids = tuple(kids)
    if len(kids) != len(children(f)):
        raise EpqError(f"{type(f).__name__} node cannot take {len(kids)} subformulas")
    kind = type(f)
    if kind is And or kind is Or:
        return kind(kids)
    if kind is Exists or kind is Forall:
        return kind(f.var, kids[0])
    if kind is Not:
        return Not(kids[0])
    return f


def subformulas(f):
    """Every node of the formula in preorder: each node before its subformulas."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        out.append(g)
        kids = children(g)
        if kids:
            stack.extend(reversed(kids))
    return out


def walk(gen):
    """Run a recursive walker written as a generator, on an explicit stack.

    Where a recursive function would call ``rec(c)``, the generator writes
    ``(yield rec(c))`` and is resumed with the child's return value, so depth
    is bounded by memory, not by Python's recursion limit.
    """
    stack = [gen]
    value = None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


def _scan(f):
    # One preorder walk of f: the node kinds, the variable names, the free
    # variables of f alone, each (symbol, arity) its atoms use, in order of
    # first use, and the nodes in preorder (as ``subformulas`` lists them).
    # A quantifier binds its variable until the walk reaches the mark pushed
    # below its body, so no per-node sets are built.
    kinds, names, free, uses, nodes = set(), set(), set(), {}, []
    bound = {}  # name -> quantifiers binding it on the current path
    stack = [f]
    while stack:
        g = stack.pop()
        if g is _LEAVE:
            bound[stack.pop()] -= 1
            continue
        nodes.append(g)
        kind = type(g)
        kinds.add(kind)
        if kind is Atom or kind is Equality:
            args = g.args if kind is Atom else (g.left, g.right)
            if kind is Atom:
                uses[g.symbol, len(args)] = None
            names.update(args)
            for x in args:
                if not bound.get(x):
                    free.add(x)
        else:
            if kind is Exists or kind is Forall:
                names.add(g.var)
                bound[g.var] = bound.get(g.var, 0) + 1
                stack += (g.var, _LEAVE)
            stack.extend(reversed(children(g)))
    return kinds, names, free, uses, nodes


_LEAVE = object()


def variable_names(f):
    """Every variable token occurring anywhere in the formula."""
    return _scan(f)[1]


def _free_sets(nodes):
    # Free variables per node id, built bottom up: in reversed preorder every
    # node comes after all of its subformulas.
    free = {}
    for g in reversed(nodes):
        kind = type(g)
        if kind is Atom:
            out = set(g.args)
        elif kind is Equality:
            out = {g.left, g.right}
        else:
            out = set().union(*[free[id(c)] for c in children(g)])
            if kind is Exists or kind is Forall:
                out.discard(g.var)
        free[id(g)] = out
    return free


def free_variables(f):
    """Variables with at least one occurrence not bound by a quantifier."""
    return frozenset(_scan(f)[2])


@dataclass(frozen=True)
class FormulaInfo:
    fragment: str  # "PP", "EP", or "FO"
    variables: int
    equality_free: bool
    closed: bool


def _info(kinds, names, free):
    fragment = "FO" if Not in kinds or Forall in kinds else "EP" if Or in kinds else "PP"
    return FormulaInfo(fragment, len(names), Equality not in kinds, not free)


def classify(f):
    """Fragment membership, distinct-variable count, equality and closedness flags."""
    return _info(*_scan(f)[:3])


_REQUIRED = {"PP": "a primitive positive sentence is required",
             "EP": "an existential positive sentence is required"}


def _checked(f, fragment, signature=None, k=None):
    # The ``_scan`` of f, once f is a sentence of at most ``k`` variables, if
    # given, of the fragment ("PP", "EP" or "FO", each within the next), is
    # closed, and has atoms that fit the signature, if given, checked in that
    # order; of the atoms that do not fit, the first in preorder is named.
    # Without a signature, ``_signature`` of the scan's uses is the one they fit.
    scan = kinds, names, free, uses, _ = _scan(f)
    if k is not None and len(names) > k:
        raise FragmentError(f"sentence uses {len(names)} variables, more than k={k}")
    if fragment in _REQUIRED and _info(kinds, names, free).fragment not in ("PP", fragment):
        raise FragmentError(_REQUIRED[fragment])
    if free:
        raise FragmentError("a closed sentence is required")
    if signature is None:
        return scan
    arities = signature._arities
    for symbol, used in uses:
        if symbol not in arities:
            raise SignatureMismatch(f"symbol {symbol!r} is not in the structure signature")
        if arities[symbol] != used:
            raise SignatureMismatch(
                f"symbol {symbol!r} has arity {arities[symbol]}, used with {used} arguments")
    return scan


# One match per token: a comment up to the next line break (any that
# ``str.splitlines`` knows), an identifier, or any other non-space character.
_TOKEN_RE = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*|[A-Za-z0-9_^@']+|\S")
_STRAY_RE = re.compile(r"[^\sA-Za-z0-9_^@'#(),.=&|]")
_KEYWORDS = frozenset({"exists", "forall", "not"})
_PUNCT = frozenset("(),.=&|")


def _tokenize(text):
    # The tokens as plain strings, comments dropped, then "" for the end.
    tokens = _TOKEN_RE.findall(text)
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text, signature):
        self.text = text
        self.tokens = tokens = _tokenize(text)
        self.pos = 0
        self.signature = signature
        if _STRAY_RE.search(text):  # a character outside the grammar, found before parsing
            for i, tok in enumerate(tokens):
                if _STRAY_RE.match(tok):
                    raise self.error(f"unexpected character {tok!r}", i)

    def error(self, message, index):
        # Positions are worked out only here, by scanning the text again up
        # to token ``index``; the end is just after the last token, if any.
        offset = 0
        found = (m for m in _TOKEN_RE.finditer(self.text) if m.group()[0] != "#")
        for i, m in zip(range(index + 1), found):
            offset = m.start() if i == index else m.end()
        lines = (self.text[:offset] + "x").splitlines()
        return ParseError(message, len(lines), len(lines[-1]))

    def expect(self, tok):
        found = self.tokens[self.pos]
        self.pos += 1
        if found != tok:
            raise self.error(f"expected {tok!r}, found {found!r}", self.pos - 1)

    def identifier(self, role):
        tok = self.tokens[self.pos]
        self.pos += 1
        if not tok or tok in _PUNCT:
            raise self.error(f"expected a {role} name, found {tok!r}", self.pos - 1)
        if tok in _KEYWORDS:
            raise self.error(f"keyword {tok!r} cannot be used as a {role} name", self.pos - 1)
        return tok

    # A generator run by ``walk``: a quantifier, 'not' or '(' group takes a
    # frame, and an atom or equality is read inline.
    def formula(self):
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok == "exists" or tok == "forall":
            self.pos += 1
            var = self.identifier("variable")
            self.expect(".")
            body = yield self.formula()
            return Exists(var, body) if tok == "exists" else Forall(var, body)
        if tok == "not":
            self.pos += 1
            return Not((yield self.formula()))
        # '&' binds tighter than '|': one list of units per disjunct
        disjuncts = [[]]
        while True:
            if tokens[self.pos] == "(":
                self.pos += 1
                disjuncts[-1].append((yield self.formula()))
                self.expect(")")
            else:
                disjuncts[-1].append(self.atom())
            tok = tokens[self.pos]
            if tok == "|":
                disjuncts.append([])
            elif tok != "&":
                parts = [units[0] if len(units) == 1 else conj(units) for units in disjuncts]
                return parts[0] if len(parts) == 1 else disj(parts)
            self.pos += 1

    def atom(self):
        start = self.pos
        name = self.identifier("predicate or variable")
        tok = self.tokens[self.pos]
        if tok == "=":
            self.pos += 1
            return Equality(name, self.identifier("variable"))
        if tok != "(":
            raise self.error(f"expected '(' or '=' after {name!r}", self.pos)
        self.pos += 1
        args = [self.identifier("variable")]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            args.append(self.identifier("variable"))
        self.expect(")")
        if self.signature is not None:
            if name not in self.signature:
                raise self.error(f"unknown relation symbol {name!r}", start)
            if self.signature.arity(name) != len(args):
                raise self.error(
                    f"symbol {name!r} has arity {self.signature.arity(name)}, got {len(args)} arguments",
                    start,
                )
        return Atom(name, tuple(args))


def parse_formula(text, signature=None):
    """Parse a formula in the module grammar; raises ParseError with position."""
    parser = _Parser(text, signature)
    formula = walk(parser.formula())
    trailing = parser.tokens[parser.pos]
    if trailing:
        raise parser.error(f"unexpected trailing input {trailing!r}", parser.pos)
    return formula


def render(f):
    """Canonical text for a formula; parse(render(f)) is structurally f."""
    return walk(_render(f))


def _render(f):
    kind = type(f)
    if kind is Atom:
        return f"{f.symbol}({','.join(f.args)})"
    if kind is Equality:
        return f"{f.left} = {f.right}"
    parts = []
    for c in children(f):
        text = yield _render(c)
        bare = type(c) is Atom or type(c) is Equality or kind is Exists or kind is Forall
        parts.append(text if bare else f"({text})")
    if kind is And:
        return " & ".join(parts)
    if kind is Or:
        return " | ".join(parts)
    if kind is Not:
        return f"not {parts[0]}"
    return f"{'exists' if kind is Exists else 'forall'} {f.var} . {parts[0]}"


_VAR_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_^'"
)


def query_variable(element):
    """Variable token standing for a universe element in generated queries.

    The fixed prefix keeps generated names apart from user-chosen variables.
    Characters the sentence grammar cannot carry (notably '|' in product
    element names) are escaped through '@', injectively.
    """
    out = ["q_"]
    for ch in element:
        if ch == "@":
            out.append("@@")
        elif ch == "|":
            out.append("@p")
        elif ch in _VAR_SAFE:
            out.append(ch)
        else:
            out.append("@%02x" % ord(ch))
    return "".join(out)


def canonical_query(a):
    """The sentence asserting "this structure maps homomorphically into here".

    One existential variable per universe element, one atom per tuple; when
    the structure has no tuples at all a reflexive equality keeps the body
    non-empty.
    """
    if not a.universe:
        raise EpqError("canonical query needs a non-empty universe")
    atoms = []
    for sym in a.signature:
        for t in sorted(a.relations[sym.name]):
            atoms.append(Atom(sym.name, tuple(query_variable(e) for e in t)))
    if atoms:
        body = conj(atoms)
    else:
        v = query_variable(a.universe[0])
        body = Equality(v, v)
    out = body
    for elem in reversed(a.universe):
        out = Exists(query_variable(elem), out)
    return out


def formula_signature(f):
    """Signature inferred from the predicate atoms of a formula."""
    return _signature(_scan(f)[3])


def _signature(uses):
    # the signature of the (symbol, arity) pairs of ``_scan``, in that order
    arities = {}
    for symbol, used in uses:
        if arities.setdefault(symbol, used) != used:
            raise EpqError(f"symbol {symbol!r} used with arities {arities[symbol]} and {used}")
    return Signature([RelationSymbol(symbol, arity) for symbol, arity in arities.items()])


def _fresh_name(base, taken):
    i = 2
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def structure_of_pp(psi, signature=None):
    """Structure induced by a primitive positive sentence.

    Equalities are eliminated by merging variables (lexicographically least
    name wins); the universe keeps one element per surviving quantified
    variable, in quantifier-prefix order.
    """
    uses = _checked(psi, "PP", signature)[3]
    return _structure_and_unions(psi, _signature(uses) if signature is None else signature)[0]


def _structure_and_unions(psi, signature=None):
    """``structure_of_pp`` of a closed sentence that may also hold ``Or``s of atoms.

    The structure comes from everything outside those ``Or``s; each ``Or``
    comes back as a list of (symbol, arguments) over the merged variables.
    One preorder walk renames bound variables apart as it collects: the
    first quantifier of a name keeps it, later ones get a fresh name, and
    every atom, equality and ``Or`` reads its innermost binder.  The caller
    checks that the atoms fit ``signature`` (``_checked``); without one, the
    sentence's own signature is used, which they fit by construction.
    """
    quantified = []  # in quantifier-prefix order
    atoms = []
    equalities = []
    ors = []
    given = {}  # name -> names given to the quantifiers binding it on the current path
    taken = None  # every name in psi, read once a quantifier repeats a name
    stack = [(psi, False)]
    while stack:
        g, leaving = stack.pop()
        kind = type(g)
        if leaving:
            given[g.var].pop()
        elif kind is Atom:
            atoms.append((g.symbol, tuple(given[x][-1] for x in g.args)))
        elif kind is Equality:
            equalities.append((given[g.left][-1], given[g.right][-1]))
        elif kind is Or:
            ors.append([(c.symbol, tuple(given[x][-1] for x in c.args)) for c in g.children])
        else:
            if kind is Exists:
                new = g.var
                if new in given:
                    if taken is None:
                        taken = variable_names(psi)
                    new = _fresh_name(g.var, taken)
                    taken.add(new)
                given.setdefault(g.var, []).append(new)
                quantified.append(new)
                stack.append((g, True))
            stack.extend((c, False) for c in reversed(children(g)))

    parent = {v: v for v in quantified}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in equalities:
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        root = min(rx, ry)
        parent[rx] = root
        parent[ry] = root

    universe = []
    seen = set()
    for v in quantified:
        r = find(v)
        if r not in seen:
            seen.add(r)
            universe.append(r)

    if signature is None:
        signature = formula_signature(psi)

    relations = {}
    for symbol, args in atoms:
        relations.setdefault(symbol, set()).add(tuple(find(x) for x in args))
    unions = [[(symbol, tuple(find(x) for x in args)) for symbol, args in branches]
              for branches in ors]
    return Structure(signature, tuple(universe), relations), unions


def replace_atoms(f, fn):
    """Rebuild a formula with every predicate atom passed through ``fn``."""
    return walk(_replaced(f, fn))


def _replaced(f, fn):
    if type(f) is Atom:
        return fn(f)
    kids = []
    for c in children(f):
        kids.append((yield _replaced(c, fn)))
    return rebuild(f, kids)
