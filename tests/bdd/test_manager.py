"""Unit tests for the ROBDD manager."""

import sys

import pytest

from repro.bdd import FALSE, TRUE, BddError, BddManager


@pytest.fixture()
def mgr():
    return BddManager(["a", "b", "c"])


class TestVariables:
    def test_var_returns_canonical_node(self, mgr):
        assert mgr.var("a") == mgr.var("a")

    def test_nvar_is_complement(self, mgr):
        assert mgr.nvar("a") == mgr.not_(mgr.var("a"))

    def test_duplicate_declaration_rejected(self, mgr):
        with pytest.raises(BddError):
            mgr.add_variable("a")

    def test_new_variable_appends_to_order(self, mgr):
        mgr.var("z")
        assert mgr.variable_order == ("a", "b", "c", "z")

    def test_level_of_unknown_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.level_of("nope")

    def test_has_variable(self, mgr):
        assert mgr.has_variable("a")
        assert not mgr.has_variable("q")


class TestConnectives:
    def test_and_truth(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.evaluate(f, {"a": 1, "b": 1}) == 1
        assert mgr.evaluate(f, {"a": 1, "b": 0}) == 0

    def test_or_truth(self, mgr):
        f = mgr.or_(mgr.var("a"), mgr.var("b"))
        assert mgr.evaluate(f, {"a": 0, "b": 0}) == 0
        assert mgr.evaluate(f, {"a": 0, "b": 1}) == 1

    def test_xor_xnor_complementary(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.not_(mgr.xor(a, b)) == mgr.xnor(a, b)

    def test_empty_and_is_true(self, mgr):
        assert mgr.and_() == TRUE

    def test_empty_or_is_false(self, mgr):
        assert mgr.or_() == FALSE

    def test_nand_nor(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.nand(a, b) == mgr.not_(mgr.and_(a, b))
        assert mgr.nor(a, b) == mgr.not_(mgr.or_(a, b))

    def test_implies(self, mgr):
        f = mgr.implies(mgr.var("a"), mgr.var("b"))
        assert mgr.evaluate(f, {"a": 1, "b": 0}) == 0
        assert mgr.evaluate(f, {"a": 0, "b": 0}) == 1

    def test_double_negation(self, mgr):
        a = mgr.var("a")
        assert mgr.not_(mgr.not_(a)) == a

    def test_ite_identity_cases(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.ite(TRUE, a, b) == a
        assert mgr.ite(FALSE, a, b) == b
        assert mgr.ite(a, TRUE, FALSE) == a
        assert mgr.ite(a, b, b) == b


class TestCanonicity:
    def test_structural_sharing(self, mgr):
        # Same function built two ways interns to the same node.
        a, b = mgr.var("a"), mgr.var("b")
        f1 = mgr.not_(mgr.and_(a, b))
        f2 = mgr.or_(mgr.not_(a), mgr.not_(b))  # De Morgan
        assert f1 == f2

    def test_tautology_collapses_to_true(self, mgr):
        a = mgr.var("a")
        assert mgr.or_(a, mgr.not_(a)) == TRUE

    def test_contradiction_collapses_to_false(self, mgr):
        a = mgr.var("a")
        assert mgr.and_(a, mgr.not_(a)) == FALSE


class TestStructuralOps:
    def test_restrict(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.restrict(f, "a", 1) == mgr.var("b")
        assert mgr.restrict(f, "a", 0) == FALSE

    def test_restrict_bad_value(self, mgr):
        with pytest.raises(BddError):
            mgr.restrict(mgr.var("a"), "a", 2)

    def test_restrict_chain_deeper_than_old_recursion_cap(self):
        depth = 12_000
        names = [f"x{i}" for i in range(depth)]
        mgr = BddManager(names)

        def chain(skip=None):
            node = TRUE
            for name in reversed(names):
                if name != skip:
                    node = mgr.and_(mgr.var(name), node)
            return node

        f = chain()
        limit = sys.getrecursionlimit()
        assert mgr.restrict(f, "x6000", 1) == chain(skip="x6000")
        assert mgr.restrict(f, "x6000", 0) == FALSE
        assert mgr.restrict(f, names[-1], 1) == chain(skip=names[-1])
        assert sys.getrecursionlimit() == limit

    def test_cofactoring_leaves_recursion_limit_alone(self, mgr):
        limit = sys.getrecursionlimit()
        f = mgr.xor(mgr.var("a"), mgr.and_(mgr.var("b"), mgr.var("c")))
        mgr.restrict(f, "b", 1)
        mgr.cofactors(f, "c")
        mgr.boolean_difference(f, "a")
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_restrict_numbers_nodes_like_the_recursive_walk(self, name):
        """Nodes are created post-order, low child first."""

        def build(mgr):
            a, b, c, d = (mgr.var(v) for v in "abcd")
            return mgr.or_(
                mgr.and_(a, mgr.xor(b, d)), mgr.and_(mgr.not_(c), mgr.xor(a, d))
            )

        def recursive_restrict(mgr, f, level, value, cache):
            if mgr._level[f] > level:
                return f
            if f not in cache:
                if mgr._level[f] == level:
                    cache[f] = mgr._hi[f] if value else mgr._lo[f]
                else:
                    lo = recursive_restrict(mgr, mgr._lo[f], level, value, cache)
                    hi = recursive_restrict(mgr, mgr._hi[f], level, value, cache)
                    cache[f] = mgr._node(mgr._level[f], lo, hi)
            return cache[f]

        for value in (0, 1):
            ours = BddManager(["a", "b", "c", "d"])
            reference = BddManager(["a", "b", "c", "d"])
            result = ours.restrict(build(ours), name, value)
            f = build(reference)
            expected = recursive_restrict(
                reference, f, reference.level_of(name), value, {}
            )
            assert result == expected
            assert ours.cache_stats() == reference.cache_stats()

    def test_cofactors(self, mgr):
        f = mgr.or_(mgr.var("a"), mgr.var("b"))
        f0, f1 = mgr.cofactors(f, "a")
        assert f0 == mgr.var("b")
        assert f1 == TRUE

    def test_compose(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        g = mgr.or_(mgr.var("b"), mgr.var("c"))
        composed = mgr.compose(f, "a", g)
        # (b+c)·b == b
        assert composed == mgr.var("b")

    def test_exists_forall(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.exists(f, ["a"]) == mgr.var("b")
        assert mgr.forall(f, ["a"]) == FALSE

    def test_boolean_difference_xor_depends(self, mgr):
        f = mgr.xor(mgr.var("a"), mgr.var("b"))
        assert mgr.boolean_difference(f, "a") == TRUE

    def test_boolean_difference_independent(self, mgr):
        f = mgr.var("b")
        assert mgr.boolean_difference(f, "a") == FALSE

    def test_depends_on(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("c"))
        assert mgr.depends_on(f, "a")
        assert not mgr.depends_on(f, "b")

    def test_support(self, mgr):
        f = mgr.ite(mgr.var("a"), mgr.var("b"), mgr.var("c"))
        assert mgr.support(f) == {"a", "b", "c"}

    def test_size_counts_internal_nodes(self, mgr):
        assert mgr.size(TRUE) == 0
        assert mgr.size(mgr.var("a")) == 1


class TestSat:
    def test_any_sat_none_for_false(self, mgr):
        assert mgr.any_sat(FALSE) is None

    def test_any_sat_satisfies(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.nvar("b"))
        assignment = mgr.any_sat(f)
        assert mgr.evaluate(f, {**{"a": 0, "b": 0, "c": 0}, **assignment}) == 1

    def test_all_sats_count(self, mgr):
        f = mgr.or_(mgr.var("a"), mgr.var("b"))
        sats = list(mgr.all_sats(f, ["a", "b"]))
        assert len(sats) == 3

    def test_all_sats_missing_support_raises(self, mgr):
        f = mgr.var("a")
        with pytest.raises(BddError):
            list(mgr.all_sats(f, ["b"]))

    def test_sat_count(self, mgr):
        f = mgr.or_(mgr.var("a"), mgr.var("b"))
        # Over 3 declared variables: 3 * 2 = 6 minterms.
        assert mgr.sat_count(f) == 6
        assert mgr.sat_count(f, 2) == 3

    def test_sat_count_constants(self, mgr):
        assert mgr.sat_count(TRUE) == 8
        assert mgr.sat_count(FALSE) == 0

    def test_evaluate_missing_binding_raises(self, mgr):
        f = mgr.var("a")
        with pytest.raises(BddError):
            mgr.evaluate(f, {})


class TestBuilders:
    def test_cube(self, mgr):
        f = mgr.cube({"a": 1, "b": 0})
        assert mgr.evaluate(f, {"a": 1, "b": 0, "c": 0}) == 1
        assert mgr.evaluate(f, {"a": 1, "b": 1, "c": 0}) == 0

    def test_from_minterms(self, mgr):
        f = mgr.from_minterms(["a", "b"], [0b10])
        assert f == mgr.cube({"a": 1, "b": 0})

    def test_from_truth_table(self, mgr):
        # XOR truth table over (a, b).
        f = mgr.from_truth_table(["a", "b"], [0, 1, 1, 0])
        assert f == mgr.xor(mgr.var("a"), mgr.var("b"))

    def test_from_truth_table_wrong_length(self, mgr):
        with pytest.raises(BddError):
            mgr.from_truth_table(["a"], [0, 1, 1])

    def test_node_info_terminal_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.node_info(TRUE)

    def test_clear_operation_cache_keeps_nodes(self, mgr):
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        mgr.clear_operation_cache()
        assert mgr.and_(mgr.var("a"), mgr.var("b")) == f


class TestOperationCache:
    def test_cache_stats_counters_move(self):
        mgr = BddManager(["a", "b", "c"])
        stats = mgr.cache_stats()
        assert stats["ite_hits"] == 0
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        # One non-trivial apply was computed: exactly one miss in the
        # computed table, whose counters keep their ite_* names.
        assert mgr.cache_stats()["ite_misses"] == 1
        mgr.and_(mgr.var("a"), mgr.var("b"))  # memoized second time around
        after = mgr.cache_stats()
        assert after["ite_misses"] == 1
        assert after["ite_hits"] == 1
        assert after["unique_misses"] > 0
        assert after["nodes"] == len(mgr)
        assert mgr.evaluate(f, {"a": 1, "b": 1}) == 1

    def test_clear_operation_cache_resets_size(self):
        mgr = BddManager(["a", "b"])
        mgr.and_(mgr.var("a"), mgr.var("b"))
        mgr.clear_operation_cache()
        assert mgr.cache_stats()["ite_size"] == 0

    @pytest.mark.parametrize(
        ("ordering", "expected"),
        [
            (
                "fanin",
                {
                    "nodes": 339,
                    "unique_hits": 24,
                    "unique_misses": 337,
                    "ite_size": 334,
                    "ite_hits": 232,
                    "ite_misses": 334,
                },
            ),
            (
                "declaration",
                {
                    "nodes": 563,
                    "unique_hits": 24,
                    "unique_misses": 561,
                    "ite_size": 558,
                    "ite_hits": 373,
                    "ite_misses": 558,
                },
            ),
        ],
    )
    def test_ripple_adder_graph_and_counters_pinned(self, ordering, expected):
        """The apply kernel builds exactly this graph with exactly this traffic.

        The ``ite_*`` counters cover the whole computed table, apply
        entries included.
        """
        from repro.atpg import CircuitBdd
        from repro.digital import ripple_adder

        circuit = ripple_adder(8)
        # The declaration order is reached through a manager built in it.
        manager = (
            None if ordering == "fanin" else BddManager(list(circuit.inputs))
        )
        cbdd = CircuitBdd(circuit, manager=manager)
        assert cbdd.total_nodes() == expected["nodes"]
        assert cbdd.mgr.cache_stats() == expected
