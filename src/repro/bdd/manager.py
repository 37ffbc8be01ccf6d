"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This module is the Boolean-function substrate of the reproduction.  The
paper's test generator (BDD_FTEST, [10] in the paper) manipulates all test
functions algebraically as OBDDs: fault activation functions, Boolean
differences for propagation, and the analog-constraint function ``Fc`` are
all BDDs, and the final test set is their product.

The implementation is a classic hash-consed ROBDD package:

* nodes are integers; ``0`` and ``1`` are the terminal nodes,
* every internal node is a triple ``(level, lo, hi)`` interned in a unique
  table, so structural equality is pointer equality,
* the binary connectives (AND, OR, XOR and their complements, and NOT as
  XOR with 1) go through one memoized Shannon-expansion *apply* kernel,
  and the three-operand cases (``implies``, ``compose``) through ``ite``
  (if-then-else); both memoize into one computed table.

No complement edges are used; clarity over micro-optimization, per the
project style guide.  The package is still fast enough to build output BDDs
for ISCAS85-class circuits with a fan-in variable ordering.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

__all__ = ["BddManager", "FALSE", "TRUE", "BddError"]

#: Terminal node representing the constant 0 function.
FALSE = 0
#: Terminal node representing the constant 1 function.
TRUE = 1

#: Level assigned to terminal nodes; larger than any variable level.
_TERMINAL_LEVEL = 2**31

# Operator codes of the apply kernel.  They are negative, so an apply
# memo key ``(op, f, g)`` never equals an ``ite`` key ``(f, g, h)``, whose
# first entry is a node; both share one computed table.
_AND = -1
_XOR = -2
_OR = -3
_NAND = -4
_NOR = -5
_XNOR = -6


class BddError(Exception):
    """Raised on invalid BDD-manager usage (unknown variables, etc.)."""


class BddManager:
    """A hash-consed ROBDD manager with a fixed, extensible variable order.

    Variables are referred to by *name* (any hashable, typically ``str``) in
    the public API and by *level* (an integer position in the global order)
    internally.  New variables may be appended to the end of the order at
    any time — the paper relies on this to place the composite value ``D``
    last in the ordering (section 2.3).

    Example::

        mgr = BddManager(["a", "b"])
        f = mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b")))
        assert mgr.evaluate(f, {"a": 1, "b": 0}) == 1
    """

    def __init__(self, variables: Iterable[object] = ()):
        # Parallel arrays for node storage: level, low child, high child.
        # Slots 0 and 1 are the terminals (their children are themselves).
        self._level = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._unique_hits = 0
        self._unique_misses = 0
        self._ite_hits = 0
        self._ite_misses = 0
        self._name_to_level: dict[object, int] = {}
        self._level_to_name: list[object] = []
        for name in variables:
            self.add_variable(name)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def add_variable(self, name: object) -> int:
        """Append ``name`` to the end of the variable order.

        Returns the BDD node for the fresh variable.  Appending never
        invalidates existing nodes because every existing level is
        unchanged.
        """
        if name in self._name_to_level:
            raise BddError(f"variable {name!r} already declared")
        level = len(self._level_to_name)
        self._name_to_level[name] = level
        self._level_to_name.append(name)
        return self._node(level, FALSE, TRUE)

    def has_variable(self, name: object) -> bool:
        """Return True if ``name`` has been declared on this manager."""
        return name in self._name_to_level

    def var(self, name: object) -> int:
        """Return the node for variable ``name`` (declares it if new)."""
        level = self._name_to_level.get(name)
        if level is None:
            return self.add_variable(name)
        return self._node(level, FALSE, TRUE)

    def nvar(self, name: object) -> int:
        """Return the node for the negation of variable ``name``."""
        level = self._name_to_level.get(name)
        if level is None:
            self.add_variable(name)
            level = self._name_to_level[name]
        return self._node(level, TRUE, FALSE)

    @property
    def variable_order(self) -> tuple[object, ...]:
        """Current variable order, outermost (top) variable first."""
        return tuple(self._level_to_name)

    def level_of(self, name: object) -> int:
        """Return the order position of ``name`` (0 = top of the BDD)."""
        try:
            return self._name_to_level[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def name_of_level(self, level: int) -> object:
        """Inverse of :meth:`level_of`."""
        return self._level_to_name[level]

    def __len__(self) -> int:
        """Total number of live nodes (including the two terminals)."""
        return len(self._level)

    # ------------------------------------------------------------------
    # Node interning
    # ------------------------------------------------------------------
    def _node(self, level: int, lo: int, hi: int) -> int:
        """Intern node ``(level, lo, hi)`` applying the reduction rules."""
        if lo == hi:  # redundant test
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            self._unique_hits += 1
            return found
        self._unique_misses += 1
        node = len(self._level)
        self._level.append(level)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = node
        return node

    def node_info(self, f: int) -> tuple[object, int, int]:
        """Return ``(variable_name, lo, hi)`` of internal node ``f``."""
        if f in (FALSE, TRUE):
            raise BddError("terminal nodes carry no variable")
        return (self._level_to_name[self._level[f]], self._lo[f], self._hi[f])

    def is_terminal(self, f: int) -> bool:
        """True for the constant nodes 0 and 1."""
        return f in (FALSE, TRUE)

    def top_var(self, f: int) -> object:
        """Name of the top (outermost) variable of ``f``."""
        return self.node_info(f)[0]

    # ------------------------------------------------------------------
    # The ite kernel
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the function ``f·g + f̄·h``.

        The three-operand kernel; its memo entries share the computed
        table with :meth:`_apply`'s.
        """
        # Terminal and trivial cases.
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        cached = self._ite_cache.get((f, g, h))
        if cached is not None:
            # Hit bookkeeping only: a miss here is re-probed (and then
            # counted, exactly once) by the root frame of _ite_rec.
            self._ite_hits += 1
            return cached
        return self._ite_rec(f, g, h)

    def _ite_rec(self, f: int, g: int, h: int) -> int:
        # Iterative depth-first Shannon expansion with an explicit stack,
        # so BDD depth is not bounded by Python's recursion limit.  A
        # call frame is the 3-tuple ``(f, g, h)``, which doubles as its
        # memo key; a combine frame is the 2-tuple ``(level, key)`` that
        # interns the node from the two child results.  The low child is
        # expanded (and memoized) before the high one, and node creation
        # is post-order, so node numbering is deterministic.  Counters
        # accumulate in locals and are flushed once.
        levels = self._level
        los = self._lo
        his = self._hi
        unique = self._unique
        cache = self._ite_cache
        unique_get = unique.get
        cache_get = cache.get
        ite_hits = ite_misses = unique_hits = unique_misses = 0
        stack: list[tuple] = [(f, g, h)]
        push = stack.append
        pop = stack.pop
        results: list[int] = []
        emit = results.append
        take = results.pop
        try:
            while stack:
                frame = pop()
                if len(frame) == 3:
                    cf, cg, ch = frame
                    if cf == TRUE:
                        emit(cg)
                        continue
                    if cf == FALSE or cg == ch:
                        emit(ch)
                        continue
                    if cg == TRUE and ch == FALSE:
                        emit(cf)
                        continue
                    cached = cache_get(frame)
                    if cached is not None:
                        ite_hits += 1
                        emit(cached)
                        continue
                    ite_misses += 1
                    lf = levels[cf]
                    lg = levels[cg]
                    lh = levels[ch]
                    top = lf if lf < lg else lg
                    if lh < top:
                        top = lh
                    if lf == top:
                        f0 = los[cf]
                        f1 = his[cf]
                    else:
                        f0 = f1 = cf
                    if lg == top:
                        g0 = los[cg]
                        g1 = his[cg]
                    else:
                        g0 = g1 = cg
                    if lh == top:
                        h0 = los[ch]
                        h1 = his[ch]
                    else:
                        h0 = h1 = ch
                    push((top, frame))
                    push((f1, g1, h1))
                    push((f0, g0, h0))
                else:
                    top, key = frame
                    hi = take()
                    lo = take()
                    if lo == hi:  # redundant test
                        node = lo
                    else:
                        ukey = (top, lo, hi)
                        node = unique_get(ukey)
                        if node is None:
                            unique_misses += 1
                            node = len(levels)
                            levels.append(top)
                            los.append(lo)
                            his.append(hi)
                            unique[ukey] = node
                        else:
                            unique_hits += 1
                    cache[key] = node
                    emit(node)
        finally:
            self._ite_hits += ite_hits
            self._ite_misses += ite_misses
            self._unique_hits += unique_hits
            self._unique_misses += unique_misses
        return results[-1]

    # ------------------------------------------------------------------
    # The apply kernel
    # ------------------------------------------------------------------
    def _apply(self, op: int, f: int, g: int) -> int:
        """``f op g`` for one of the six commutative binary connectives.

        Operands are ordered (``f <= g``) before each memo probe, so
        ``and_(f, g)`` and ``and_(g, f)`` share one entry.  A complement
        that the terminal rules leave (``nand(1, g)``, ``nor(0, g)``,
        ``xnor(0, g)``, ``nand(g, g)``, ...) becomes ``xor(1, g)``, the
        entry :meth:`not_` memoizes.
        """
        # Iterative depth-first Shannon expansion with an explicit stack,
        # on the pattern of _ite_rec: a call frame ``(op, f, g)`` with
        # ordered operands doubles as its memo key; a combine frame
        # ``(level, key, 0)``, told apart by its non-negative first entry,
        # interns the node from the two child results.  The low child is
        # expanded before the high one, and nodes are created post-order.
        levels = self._level
        los = self._lo
        his = self._hi
        unique = self._unique
        cache = self._ite_cache
        unique_get = unique.get
        cache_get = cache.get
        ite_hits = ite_misses = unique_hits = unique_misses = 0
        stack: list[tuple] = [(op, f, g) if f <= g else (op, g, f)]
        push = stack.append
        pop = stack.pop
        results: list[int] = []
        emit = results.append
        take = results.pop
        try:
            while stack:
                frame = pop()
                cop, cf, cg = frame
                if cop < 0:
                    # Terminal rules, with cf <= cg; ``negate`` marks a
                    # result that is the complement of cg.
                    negate = False
                    if cop == _AND:
                        if cf == FALSE:
                            emit(FALSE)
                            continue
                        if cf == TRUE or cf == cg:
                            emit(cg)
                            continue
                    elif cop == _XOR:
                        if cf == cg:
                            emit(FALSE)
                            continue
                        if cf == FALSE:
                            emit(cg)
                            continue
                    elif cop == _OR:
                        if cf == TRUE:
                            emit(TRUE)
                            continue
                        if cf == FALSE or cf == cg:
                            emit(cg)
                            continue
                    elif cop == _NAND:
                        if cf == FALSE:
                            emit(TRUE)
                            continue
                        negate = cf == TRUE or cf == cg
                    elif cop == _NOR:
                        if cf == TRUE:
                            emit(FALSE)
                            continue
                        negate = cf == FALSE or cf == cg
                    else:  # _XNOR
                        if cf == cg:
                            emit(TRUE)
                            continue
                        if cf == TRUE:
                            emit(cg)
                            continue
                        negate = cf == FALSE
                    if negate:
                        if cg <= TRUE:
                            emit(TRUE - cg)
                            continue
                        cop = _XOR
                        cf = TRUE
                        frame = (_XOR, TRUE, cg)
                    cached = cache_get(frame)
                    if cached is not None:
                        ite_hits += 1
                        emit(cached)
                        continue
                    ite_misses += 1
                    lf = levels[cf]
                    lg = levels[cg]
                    if lf <= lg:
                        top = lf
                        f0 = los[cf]
                        f1 = his[cf]
                    else:
                        top = lg
                        f0 = f1 = cf
                    if lg == top:
                        g0 = los[cg]
                        g1 = his[cg]
                    else:
                        g0 = g1 = cg
                    push((top, frame, 0))
                    push((cop, f1, g1) if f1 <= g1 else (cop, g1, f1))
                    push((cop, f0, g0) if f0 <= g0 else (cop, g0, f0))
                else:
                    top = cop
                    hi = take()
                    lo = take()
                    if lo == hi:  # redundant test
                        node = lo
                    else:
                        ukey = (top, lo, hi)
                        node = unique_get(ukey)
                        if node is None:
                            unique_misses += 1
                            node = len(levels)
                            levels.append(top)
                            los.append(lo)
                            his.append(hi)
                            unique[ukey] = node
                        else:
                            unique_hits += 1
                    cache[cf] = node  # cf holds the call frame's key
                    emit(node)
        finally:
            self._ite_hits += ite_hits
            self._ite_misses += ite_misses
            self._unique_hits += unique_hits
            self._unique_misses += unique_misses
        return results[-1]

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        """Complement of ``f`` (``f`` XOR 1)."""
        return self._apply(_XOR, TRUE, f)

    def and_(self, *fs: int) -> int:
        """Conjunction of one or more functions (empty product is 1)."""
        acc = TRUE
        for f in fs:
            acc = self._apply(_AND, acc, f)
            if acc == FALSE:
                return FALSE
        return acc

    def or_(self, *fs: int) -> int:
        """Disjunction of one or more functions (empty sum is 0)."""
        acc = FALSE
        for f in fs:
            acc = self._apply(_OR, acc, f)
            if acc == TRUE:
                return TRUE
        return acc

    def xor(self, f: int, g: int) -> int:
        """Exclusive-or of two functions."""
        return self._apply(_XOR, f, g)

    def xnor(self, f: int, g: int) -> int:
        """Complement of :meth:`xor`."""
        return self._apply(_XNOR, f, g)

    def nand(self, *fs: int) -> int:
        """Complemented conjunction (``nand()`` is 0)."""
        if not fs:
            return FALSE
        return self._apply(_NAND, self.and_(*fs[:-1]), fs[-1])

    def nor(self, *fs: int) -> int:
        """Complemented disjunction (``nor()`` is 1)."""
        if not fs:
            return TRUE
        return self._apply(_NOR, self.or_(*fs[:-1]), fs[-1])

    def implies(self, f: int, g: int) -> int:
        """Material implication ``f → g``."""
        return self.ite(f, g, TRUE)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def restrict(self, f: int, name: object, value: int) -> int:
        """Cofactor: substitute the constant ``value`` for variable ``name``."""
        if value not in (0, 1):
            raise BddError(f"restriction value must be 0 or 1, got {value!r}")
        level = self.level_of(name)
        levels = self._level
        los = self._lo
        his = self._hi
        cache: dict[int, int] = {}
        # Iterative depth-first walk with an explicit stack, so BDD depth
        # is not bounded by Python's recursion limit.  An ``int`` frame
        # visits a node; a 1-tuple ``(node,)`` interns its rebuilt copy
        # from the two child results.  The low child is finished before
        # the high one and nodes are created post-order, so numbering is
        # deterministic.
        stack: list = [f]
        results: list[int] = []
        while stack:
            frame = stack.pop()
            if type(frame) is int:
                node_level = levels[frame]
                if node_level > level:
                    results.append(frame)
                    continue
                hit = cache.get(frame)
                if hit is not None:
                    results.append(hit)
                elif node_level == level:
                    result = his[frame] if value else los[frame]
                    cache[frame] = result
                    results.append(result)
                else:
                    stack.append((frame,))
                    stack.append(his[frame])
                    stack.append(los[frame])
            else:
                node = frame[0]
                hi = results.pop()
                lo = results.pop()
                result = self._node(levels[node], lo, hi)
                cache[node] = result
                results.append(result)
        return results[-1]

    def cofactors(self, f: int, name: object) -> tuple[int, int]:
        """Return the pair ``(f|name=0, f|name=1)``."""
        return self.restrict(f, name, 0), self.restrict(f, name, 1)

    def compose(self, f: int, name: object, g: int) -> int:
        """Substitute function ``g`` for variable ``name`` inside ``f``."""
        f0, f1 = self.cofactors(f, name)
        return self.ite(g, f1, f0)

    def exists(self, f: int, names: Iterable[object]) -> int:
        """Existential quantification over ``names``."""
        result = f
        for name in names:
            f0, f1 = self.cofactors(result, name)
            result = self.or_(f0, f1)
        return result

    def forall(self, f: int, names: Iterable[object]) -> int:
        """Universal quantification over ``names``."""
        result = f
        for name in names:
            f0, f1 = self.cofactors(result, name)
            result = self.and_(f0, f1)
        return result

    def boolean_difference(self, f: int, name: object) -> int:
        """Boolean difference ``∂f/∂name = f|name=0 ⊕ f|name=1``.

        This is the propagation condition of the paper's test algebra: an
        input assignment sensitizes fault site ``name`` to output ``f``
        exactly when the Boolean difference evaluates to 1.
        """
        f0, f1 = self.cofactors(f, name)
        return self.xor(f0, f1)

    def depends_on(self, f: int, name: object) -> bool:
        """True if ``f`` structurally contains a node labelled ``name``.

        The paper phrases composite-value propagation as "the OBDD contains
        the node D" — for a reduced BDD this is equivalent to functional
        dependence on ``D``.
        """
        level = self.level_of(name)
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or self._level[node] > level:
                continue
            seen.add(node)
            if self._level[node] == level:
                return True
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return False

    def support(self, f: int) -> set[object]:
        """Set of variable names ``f`` depends on."""
        seen: set[int] = set()
        names: set[object] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or node in (FALSE, TRUE):
                continue
            seen.add(node)
            names.add(self._level_to_name[self._level[node]])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return names

    def size(self, f: int) -> int:
        """Number of internal nodes reachable from ``f``."""
        seen: set[int] = set()
        stack = [f]
        count = 0
        while stack:
            node = stack.pop()
            if node in seen or node in (FALSE, TRUE):
                continue
            seen.add(node)
            count += 1
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return count

    # ------------------------------------------------------------------
    # Evaluation and satisfiability
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: Mapping[object, int]) -> int:
        """Evaluate ``f`` under a complete-enough variable assignment."""
        node = f
        while node not in (FALSE, TRUE):
            name = self._level_to_name[self._level[node]]
            try:
                bit = assignment[name]
            except KeyError:
                raise BddError(
                    f"assignment does not bind variable {name!r}"
                ) from None
            node = self._hi[node] if bit else self._lo[node]
        return node

    def any_sat(self, f: int) -> dict[object, int] | None:
        """Return one satisfying partial assignment, or None if ``f = 0``.

        Only the variables actually tested along the chosen path appear in
        the result; unmentioned variables are don't-cares.  This is how a
        test vector is "read off a path leading to 1" in the paper.
        """
        if f == FALSE:
            return None
        assignment: dict[object, int] = {}
        node = f
        while node != TRUE:
            name = self._level_to_name[self._level[node]]
            if self._hi[node] != FALSE:
                assignment[name] = 1
                node = self._hi[node]
            else:
                assignment[name] = 0
                node = self._lo[node]
        return assignment

    def all_sats(
        self, f: int, care_variables: Sequence[object] | None = None
    ) -> Iterator[dict[object, int]]:
        """Yield every satisfying assignment as a complete dict.

        If ``care_variables`` is given, assignments are expanded over
        exactly those variables (which must include the support of ``f``);
        otherwise over the support only.
        """
        if care_variables is None:
            care = sorted(self.support(f), key=self.level_of)
        else:
            care = list(care_variables)
        care_set = set(care)
        missing = self.support(f) - care_set
        if missing:
            raise BddError(f"care set misses support variables {missing!r}")

        def paths(node: int) -> Iterator[dict[object, int]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield {}
                return
            name = self._level_to_name[self._level[node]]
            for bit, child in ((0, self._lo[node]), (1, self._hi[node])):
                for partial in paths(child):
                    partial = dict(partial)
                    partial[name] = bit
                    yield partial

        for partial in paths(f):
            free = [v for v in care if v not in partial]
            for bits in itertools.product((0, 1), repeat=len(free)):
                full = dict(partial)
                full.update(zip(free, bits))
                yield full

    def sat_count(self, f: int, n_variables: int | None = None) -> int:
        """Number of satisfying assignments over ``n_variables`` inputs.

        Defaults to the full set of declared variables so counts from the
        same manager are comparable.
        """
        if n_variables is None:
            n_variables = len(self._level_to_name)
        cache: dict[int, int] = {}

        # Count minterms at a virtual top level of 0, then each edge that
        # skips levels multiplies by 2 per skipped level.
        def count(node: int) -> int:
            # Returns count normalized to the node's own level.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            hit = cache.get(node)
            if hit is not None:
                return hit
            level = self._level[node]
            lo, hi = self._lo[node], self._hi[node]
            lo_level = min(self._level[lo], n_variables)
            hi_level = min(self._level[hi], n_variables)
            total = count(lo) * 2 ** (lo_level - level - 1) + count(hi) * 2 ** (
                hi_level - level - 1
            )
            cache[node] = total
            return total

        top_level = min(self._level[f], n_variables)
        return count(f) * 2**top_level

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def cube(self, literals: Mapping[object, int]) -> int:
        """Product term: AND of variables/negations given by ``literals``."""
        acc = TRUE
        for name, value in sorted(literals.items(), key=lambda kv: self.level_of(kv[0])):
            lit = self.var(name) if value else self.nvar(name)
            acc = self.and_(acc, lit)
        return acc

    def from_minterms(
        self, names: Sequence[object], minterms: Iterable[int]
    ) -> int:
        """Build a function of ``names`` from integer minterm indices.

        Bit ``0`` of a minterm index corresponds to the *last* name, so
        ``from_minterms(["a", "b"], [0b10])`` is ``a·b̄``.
        """
        width = len(names)
        terms = []
        for m in minterms:
            bits = {
                names[i]: (m >> (width - 1 - i)) & 1 for i in range(width)
            }
            terms.append(self.cube(bits))
        return self.or_(*terms)

    def from_truth_table(self, names: Sequence[object], table: Sequence[int]) -> int:
        """Build a function from an exhaustive truth table of length 2^n."""
        if len(table) != 2 ** len(names):
            raise BddError("truth table length must be 2**len(names)")
        minterms = [idx for idx, value in enumerate(table) if value]
        return self.from_minterms(names, minterms)

    def clear_operation_cache(self) -> None:
        """Drop the computed table that apply and ``ite`` share (nodes are kept)."""
        self._ite_cache.clear()

    def cache_stats(self) -> dict:
        """Unique-table and computed-table hit/miss counters and sizes.

        The ``ite_size``/``ite_hits``/``ite_misses`` keys keep their names
        but count the whole computed table: the apply kernel's entries and
        probes as well as ``ite``'s.  Surfaced through ATPG diagnostics so
        regressions in memoization behaviour are observable rather than
        just slow.
        """
        return {
            "nodes": len(self._level),
            "unique_hits": self._unique_hits,
            "unique_misses": self._unique_misses,
            "ite_size": len(self._ite_cache),
            "ite_hits": self._ite_hits,
            "ite_misses": self._ite_misses,
        }
