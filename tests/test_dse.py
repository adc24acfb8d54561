"""Design-space exploration: compositions, figure of merit, optimality."""

import itertools

import pytest

from nnadc.dse import (
    CostTable,
    StageCost,
    composition_count,
    enumerate_compositions,
    evaluate_candidate,
    optimize,
    walden_fom,
)
from nnadc.errors import ConfigError


def random_table(rng):
    return CostTable(entries={
        n: StageCost(power=rng.uniform(1e-3, 20e-3),
                     rate=rng.uniform(0.2e9, 2e9),
                     area=rng.uniform(1e-3, 30e-3))
        for n in (1, 2, 3)})


class TestCompositions:
    def test_small_cases(self):
        assert enumerate_compositions(1) == [(1,)]
        assert sorted(enumerate_compositions(3)) == sorted(
            [(1, 1, 1), (1, 2), (2, 1), (3,)])

    def test_counts_match_tribonacci(self):
        want = {0: 1}
        for n in range(1, 17):
            want[n] = sum(want.get(n - p, 0) for p in (1, 2, 3))
        for reso in range(1, 17):
            assert composition_count(reso) == want[reso]
            assert len(enumerate_compositions(reso)) == want[reso]

    def test_all_sum_to_reso(self):
        for comp in enumerate_compositions(9):
            assert sum(comp) == 9
            assert set(comp) <= {1, 2, 3}

    def test_range_check(self):
        with pytest.raises(ConfigError):
            enumerate_compositions(0)
        with pytest.raises(ConfigError):
            enumerate_compositions(17)


class TestFom:
    def test_published_points(self):
        # 25 mW / 8 bits / 1 GS/s, 67.5 mW / 12.5 bits, 31.3 mW / 9.1 bits
        assert walden_fom(25e-3, 8.0, 1e9) == pytest.approx(97.7e-15, rel=5e-3)
        assert walden_fom(67.5e-3, 12.5, 1e9) == pytest.approx(11.65e-15,
                                                               rel=5e-3)
        assert walden_fom(31.3e-3, 9.1, 1e9) == pytest.approx(57.0e-15,
                                                              rel=5e-3)

    def test_evaluate_candidate_rollup(self):
        table = CostTable(entries={
            1: StageCost(power=1e-3, rate=1e9, area=2e-3),
            2: StageCost(power=3e-3, rate=0.5e9, area=5e-3)})
        res = evaluate_candidate((1, 2, 1), table)
        assert res.power == pytest.approx(5e-3)
        assert res.rate == pytest.approx(0.5e9)
        assert res.area == pytest.approx(9e-3)
        assert res.enob == pytest.approx(4.0)
        assert res.fom_w == pytest.approx(walden_fom(5e-3, 4.0, 0.5e9))

    def test_enob_override(self):
        table = CostTable(entries={1: StageCost(1e-3, 1e9, 1e-3)})
        res = evaluate_candidate((1, 1), table, enob=1.5)
        assert res.fom_w == pytest.approx(walden_fom(2e-3, 1.5, 1e9))

    def test_missing_entry(self):
        table = CostTable(entries={1: StageCost(1e-3, 1e9, 1e-3)})
        with pytest.raises(ConfigError):
            evaluate_candidate((1, 2), table)


class TestOptimize:
    @pytest.mark.parametrize("reso", [4, 8, 14])
    def test_matches_brute_force(self, reso):
        import numpy as np
        rng = np.random.default_rng(reso)
        for _ in range(50):
            table = random_table(rng)
            ranked = optimize(reso, table)
            assert len(ranked) == composition_count(reso)
            best = ranked[0]
            # independent re-scan: no candidate strictly better
            for comp in enumerate_compositions(reso):
                other = evaluate_candidate(comp, table)
                assert best.sort_key() <= other.sort_key()

    def test_deterministic_order(self):
        import numpy as np
        table = random_table(np.random.default_rng(99))
        a = optimize(8, table)
        b = optimize(8, table)
        assert [r.composition for r in a] == [r.composition for r in b]

    def test_ranking_sorted(self):
        import numpy as np
        table = random_table(np.random.default_rng(123))
        ranked = optimize(10, table)
        keys = [r.sort_key() for r in ranked]
        assert keys == sorted(keys)
