"""Tests for the batched sweep runner (repro.analysis.sweeps)."""

import json

import pytest

from repro.analysis.sweeps import (
    RunSpec,
    SweepSpec,
    execute_run,
    resolve_jobs,
    run_sweep,
)
from repro.core.config import ExecutionConfig
from repro.faults import FaultModel
from repro.parallel import get_executor


def small_spec(**overrides):
    base = dict(
        workloads=["er", ("sparse", {"arboricity": 2})],
        sizes=[20, 28],
        ps=[3],
        seed=1,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestGridExpansion:
    def test_full_grid(self):
        cells = small_spec().runs()
        assert len(cells) == 4  # 2 workloads × 2 sizes × 1 p × 1 variant
        assert {c.workload for c in cells} == {"er", "sparse"}
        assert dict(cells[-1].params) == {"arboricity": 2}

    def test_k4_variant_skipped_for_other_p(self):
        cells = small_spec(ps=[3, 4], variants=["k4"]).runs()
        assert cells and all(c.p == 4 for c in cells)

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(ValueError, match="unknown workload"):
            small_spec(workloads=["nope"]).runs()

    def test_unknown_param_fails_fast(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            small_spec(workloads=[("er", {"densty": 0.5})]).runs()

    def test_unusable_param_value_fails_fast(self):
        with pytest.raises(TypeError):
            small_spec(workloads=[("er", {"density": "abc"})]).runs()

    def test_unknown_variant_fails_fast(self):
        with pytest.raises(ValueError, match="unknown variant"):
            small_spec(variants=["bogus"]).runs()


class TestCacheKey:
    def base(self, **overrides):
        fields = dict(
            workload="er",
            params=(),
            n=20,
            p=3,
            variant=None,
            model="congest",
            seed=1,
            verify=True,
        )
        fields.update(overrides)
        return RunSpec(**fields)

    def test_stable(self):
        assert self.base().cache_key() == self.base().cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"n": 24},
            {"p": 4},
            {"variant": "generic"},
            {"model": "congested-clique"},
            {"params": (("density", 0.3),)},
            {"extra": (("stop_scale", 0.5),)},
            {"verify": False},
        ],
    )
    def test_any_field_changes_key(self, change):
        assert self.base().cache_key() != self.base(**change).cache_key()

    def test_default_grid_key_is_pinned(self):
        """Existing default caches stay warm: a grid without execution
        overrides keys exactly as before the per-cell config moved into
        one ``algo_overrides["execution"]`` entry, while object-plane
        and faulted grids key apart from it."""

        def key(**overrides):
            (cell,) = SweepSpec(workloads=["er"], sizes=[32], ps=[3], **overrides).runs()
            return cell.cache_key()

        default = key()
        assert default == "e7aea8e8a0391ea52568699c"
        object_plane = key(algo_overrides={"execution": ExecutionConfig(plane="object")})
        faulted = key(
            algo_overrides={
                "execution": ExecutionConfig(faults=FaultModel(seed=1, drop_rate=0.01))
            }
        )
        assert len({default, object_plane, faulted}) == 3


class TestExecution:
    def test_rows_are_verified_and_complete(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["verified"] and not row["cached"]
            assert row["rounds"] > 0 and row["theory"] > 0
            assert isinstance(row["phases"], dict) and row["phases"]
        # No cache dir: every run is a miss.
        assert (result.cache_hits, result.cache_misses) == (0, 4)

    def test_cache_miss_then_hit(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, cache_dir=tmp_path)
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        assert len(list(tmp_path.glob("*.json"))) == 4

        second = run_sweep(spec, cache_dir=tmp_path)
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        assert all(row["cached"] for row in second.rows)
        # Cached rows reproduce the computed ones (minus the cached flag).
        for a, b in zip(first.rows, second.rows):
            assert a["rounds"] == b["rounds"] and a["cliques"] == b["cliques"]

    def test_changed_spec_misses(self, tmp_path):
        run_sweep(small_spec(), cache_dir=tmp_path)
        shifted = run_sweep(small_spec(seed=2), cache_dir=tmp_path)
        assert shifted.cache_hits == 0 and shifted.cache_misses == 4

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, cache_dir=tmp_path)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("not json {")
        again = run_sweep(spec, cache_dir=tmp_path)
        assert (again.cache_hits, again.cache_misses) == (3, 1)
        assert json.loads(victim.read_text())["rounds"] > 0

    def test_multiprocessing_matches_inline(self, tmp_path):
        spec = small_spec()
        inline = run_sweep(spec)
        fanned = run_sweep(spec, jobs=2)
        assert [r["rounds"] for r in inline.rows] == [r["rounds"] for r in fanned.rows]
        assert [r["cliques"] for r in inline.rows] == [r["cliques"] for r in fanned.rows]

    def test_execution_override_reaches_the_driver(self, executor_resolutions):
        """An ``algo_overrides["execution"]`` entry reaches every cell
        (which resolves its executor from it); charges and counts match
        the default single-core rows."""
        pooled = {"execution": ExecutionConfig(workers=2)}
        for model in ("congest", "congested-clique"):
            spec = dict(workloads=["er"], sizes=[20], model=model)
            (batch,) = run_sweep(small_spec(**spec)).rows
            executor_resolutions.clear()
            (par,) = run_sweep(small_spec(**spec, algo_overrides=pooled)).rows
            assert all(ex is get_executor(2) for _, ex in executor_resolutions)
            assert (par["rounds"], par["cliques"]) == (batch["rounds"], batch["cliques"])
        assert executor_resolutions  # the congested-clique cell resolved one

    def test_congested_clique_model(self):
        result = run_sweep(
            small_spec(workloads=["sparse"], model="congested-clique", sizes=[20])
        )
        (row,) = result.rows
        assert row["model"] == "congested-clique" and row["variant"] == "-"

    def test_execute_run_rejects_unknown_model(self):
        spec = RunSpec(
            workload="er",
            params=(),
            n=10,
            p=3,
            variant=None,
            model="telepathy",
            seed=0,
            verify=False,
        )
        with pytest.raises(ValueError, match="unknown model"):
            execute_run(spec)

    def test_resolve_jobs(self):
        assert resolve_jobs(1, 100) == 1
        assert resolve_jobs(16, 3) == 3
        assert 1 <= resolve_jobs(0, 100) <= 8


class TestReport:
    def test_markdown_report(self, tmp_path):
        result = run_sweep(small_spec(), cache_dir=tmp_path)
        report = result.to_markdown()
        assert "workload er" in report and "workload sparse" in report
        assert "sweep summary" in report
        assert "cache: 0 hit(s), 4 miss(es)" in report

    def test_same_family_distinct_params_get_separate_tables(self):
        result = run_sweep(
            SweepSpec(
                workloads=[("er", {"density": 0.2}), ("er", {"density": 0.8})],
                sizes=[16],
                ps=[3],
                seed=1,
            )
        )
        report = result.to_markdown()
        assert 'workload er {"density": 0.2}' in report
        assert 'workload er {"density": 0.8}' in report

    def test_json_round_trip(self):
        result = run_sweep(small_spec(sizes=[20], workloads=["sparse"]))
        payload = json.loads(result.to_json())
        assert payload["rows"][0]["workload"] == "sparse"
        assert payload["cache_misses"] == 1
