"""The unified ExecutionConfig surface and its CLI parent.

One frozen object (:class:`repro.core.config.ExecutionConfig`) owns the
cross-cutting run knobs — plane/workers/hosts, faults, cost model,
topology, materialization — with :class:`AlgorithmParameters` composing
it as its only execution surface and the CLI declaring it once
through ``add_execution_args`` / ``execution_config_from_args``.  These
tests pin the composition rules, the single workers/hosts→executor
resolver, and the shared-flag parsing/validation of every subcommand.
"""

import dataclasses

import pytest

from repro.congest.routing import DEFAULT_COST_MODEL
from repro.congest.topology import Topology
from repro.core.config import ExecutionConfig
from repro.core.params import AlgorithmParameters
from repro.dist import Cluster
from repro.faults import FaultModel
from repro.parallel import ShardExecutor


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.plane == "batch"
        assert config.workers == 1
        assert config.hosts == ()
        assert config.faults is None
        assert config.materialize is False
        assert config.cost_model == DEFAULT_COST_MODEL
        assert config.topology is None

    def test_validation(self):
        with pytest.raises(ValueError, match="plane"):
            ExecutionConfig(plane="quantum")
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError, match="hosts"):
            ExecutionConfig(hosts=("local", ""))
        with pytest.raises(TypeError, match="cost_model"):
            ExecutionConfig(cost_model="cheap")
        with pytest.raises(TypeError, match="topology"):
            ExecutionConfig(topology=42)
        with pytest.raises(ValueError):
            ExecutionConfig(topology="torus")

    def test_hosts_frozen_to_tuple(self):
        config = ExecutionConfig(hosts=["local", "spawn"])
        assert config.hosts == ("local", "spawn")

    def test_topology_spec_strings_parse_at_construction(self):
        config = ExecutionConfig(topology="grid:8@bw=0.5")
        assert isinstance(config.topology, Topology)
        assert config.topology_spec() == "grid:8@bw=0.5"
        assert ExecutionConfig().topology_spec() is None

    def test_with_(self):
        config = ExecutionConfig().with_(plane="object", materialize=True)
        assert (config.plane, config.materialize) == ("object", True)
        # frozen: no in-place mutation
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.plane = "batch"

    def test_resolve_executor_central_planes(self):
        assert ExecutionConfig().resolve_executor() is None
        assert ExecutionConfig(plane="object").resolve_executor() is None

    @pytest.mark.parametrize(
        "kwargs, executor_type",
        [({"workers": 2}, ShardExecutor), ({"hosts": ("local",)}, Cluster)],
    )
    def test_resolve_executor_derives_from_workers_and_hosts(
        self, kwargs, executor_type
    ):
        executor = ExecutionConfig(**kwargs).resolve_executor()
        assert type(executor) is executor_type

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": 2, "hosts": ("local",)}, "two executors"),
            ({"plane": "object", "workers": 2}, "no shard executor"),
            ({"plane": "parallel"}, "workers=N"),
        ],
    )
    def test_contradictory_executor_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExecutionConfig(**kwargs)


class TestParamsComposition:
    def test_params_compose_a_default_config(self):
        params = AlgorithmParameters(p=4)
        assert isinstance(params.execution, ExecutionConfig)
        assert params.execution == ExecutionConfig()

    def test_dataclasses_replace_keeps_working(self):
        params = AlgorithmParameters(p=3)
        config = ExecutionConfig(plane="object")
        replaced = dataclasses.replace(params, execution=config)
        assert replaced.execution is config
        assert params.with_(execution=config) == replaced
        # Replacing another field keeps the composed config.
        assert dataclasses.replace(replaced, seed=9).execution is config

    def test_with_routes_execution_surface_through_config(self):
        faulted = ExecutionConfig(faults=FaultModel(seed=1, drop_rate=0.01))
        params = AlgorithmParameters(p=3, execution=faulted)
        cleared = params.with_(execution=params.execution.with_(faults=None))
        assert cleared.execution.faults is None
        assert params.execution.faults is not None
        tuned = cleared.with_(
            execution=cleared.execution.with_(topology="star", materialize=True)
        )
        assert tuned.execution.topology == Topology(kind="star")
        assert tuned.execution.materialize is True
        # Non-execution fields still replace normally.
        assert tuned.with_(seed=9).seed == 9
        assert tuned.with_(seed=9).execution == tuned.execution

    def test_validation_delegated_to_config(self):
        # ExecutionConfig is the only execution surface; its own
        # test_validation covers bad planes and worker counts.
        with pytest.raises(TypeError):
            AlgorithmParameters(p=3, plane="object")


class TestCliExecutionParent:
    """add_execution_args / execution_config_from_args on every subcommand."""

    def _config(self, argv):
        from repro.cli import execution_config_from_args, make_parser

        return execution_config_from_args(make_parser().parse_args(argv))

    def test_list_defaults(self):
        config = self._config(["list", "--n", "16"])
        assert config == ExecutionConfig()

    def test_workers_select_the_pool(self):
        config = self._config(["list", "--n", "16", "--workers", "3"])
        assert (config.plane, config.workers) == ("batch", 3)

    def test_hosts_select_the_cluster(self):
        config = self._config(["list", "--n", "16", "--hosts", "local,local"])
        assert config.plane == "batch"
        assert config.hosts == ("local", "local")

    def test_explicit_plane_wins(self):
        config = self._config(["list", "--n", "16", "--plane", "object"])
        assert config.plane == "object"

    def test_topology_and_faults_flow_into_config(self):
        config = self._config(
            [
                "list", "--n", "16", "--topology", "grid:4@lat=1",
                "--fault-seed", "5", "--drop-rate", "0.01", "--materialize",
            ]
        )
        assert config.topology == Topology(kind="grid", grid_width=4, latency=1.0)
        assert config.faults == FaultModel(seed=5, drop_rate=0.01)
        assert config.materialize is True

    def test_stream_and_serve_share_the_parent(self):
        stream = self._config(["stream", "--n", "16", "--workers", "2"])
        assert stream.workers == 2
        serve = self._config(["serve", "--n", "16", "--workers", "2"])
        assert serve.workers == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["list", "--n", "16", "--workers", "2", "--hosts", "local"],
                "two executors",
            ),
            (
                ["list", "--n", "16", "--plane", "object", "--workers", "2"],
                "no shard executor",
            ),
            (["list", "--n", "16", "--topology", "torus"], "invalid --topology"),
        ],
    )
    def test_typed_pairing_errors(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            self._config(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--n", "16", "--requests", "0"],
            ["serve", "--n", "16", "--requests", "many"],
            ["serve", "--n", "16", "--rate", "0"],
            ["serve", "--n", "16", "--rate", "-3"],
            ["serve", "--n", "16", "--rate", "inf"],
            ["serve", "--n", "16", "--compact-every", "0"],
            ["serve", "--n", "16", "--query-threads", "0"],
            ["stream", "--n", "16", "--compact-every", "-1"],
            ["sweep", "--workers", "0"],
        ],
    )
    def test_argparse_types_reject_nonsense(self, argv, capsys):
        from repro.cli import make_parser

        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_serve_has_no_fault_or_topology_flags(self):
        from repro.cli import make_parser

        with pytest.raises(SystemExit):
            make_parser().parse_args(["serve", "--fault-seed", "1"])
        with pytest.raises(SystemExit):
            make_parser().parse_args(["serve", "--topology", "star"])

    def test_split_topology_list_keeps_cost_suffixes(self):
        from repro.cli import _split_topology_list

        assert _split_topology_list("star,ring") == ["star", "ring"]
        assert _split_topology_list("grid:8@bw=0.5,lat=2,ring,clique") == [
            "grid:8@bw=0.5,lat=2",
            "ring",
            "clique",
        ]
        assert _split_topology_list(" star , spanner:3@lat=1 ") == [
            "star",
            "spanner:3@lat=1",
        ]

    @pytest.mark.parametrize("plane", ["parallel", "dist"])
    def test_plane_choices_are_representations_only(self, plane):
        from repro.cli import make_parser

        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["sweep", "--n", "8", "--plane", plane])
        assert exc.value.code == 2
