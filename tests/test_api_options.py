"""The unified options/config surface (repro.common.options).

All four ``.options()`` surfaces — task, actor, method, deployment — plus
the ``@repro.remote`` / ``@serve.deployment`` decorators validate through
the single ``Options.for_surface`` path: unknown keys raise TypeError with
a did-you-mean suggestion, chained calls merge, and ``repro.init``
rejects unknown RuntimeConfig overrides.
"""

import pytest

import repro
from repro import serve
from repro.common.options import UNSET, Options


@repro.remote
def echo(x):
    return x


@repro.remote(num_cpus=2, max_retries=1)
def heavy(x):
    return x


@repro.remote(num_cpus=2)
class Counter:
    def __init__(self):
        self.value = 0

    def incr(self, by=1):
        self.value += by
        return self.value


class TestOptionsObject:
    def test_unset_fields_are_distinguished_from_none(self):
        opts = Options.for_surface("actor", checkpoint_interval=None)
        assert opts.is_set("checkpoint_interval")
        assert opts.get("checkpoint_interval", 5) is None
        assert not opts.is_set("name")
        assert opts.get("name", "fallback") == "fallback"

    def test_merged_later_fields_win(self):
        first = Options.for_surface("task", num_cpus=2, max_retries=1)
        second = Options.for_surface("task", max_retries=3)
        merged = first.merged(second)
        assert merged.get("num_cpus") == 2
        assert merged.get("max_retries") == 3

    def test_set_fields_round_trip(self):
        opts = Options.for_surface("task", num_returns=2)
        assert opts.set_fields() == {"num_returns": 2}
        assert "num_returns=2" in repr(opts)

    def test_unknown_surface_rejected(self):
        with pytest.raises(ValueError, match="unknown options surface"):
            Options.for_surface("lambda", num_cpus=1)

    def test_value_validation(self):
        with pytest.raises(TypeError, match="num_returns"):
            Options.for_surface("task", num_returns=0)
        with pytest.raises(TypeError, match="num_cpus"):
            Options.for_surface("task", num_cpus=-1)
        with pytest.raises(TypeError, match="retry_exceptions"):
            Options.for_surface("task", retry_exceptions=KeyError)
        with pytest.raises(TypeError, match="batch_wait_timeout_s"):
            Options.for_surface("deployment", batch_wait_timeout_s=-0.5)
        with pytest.raises(TypeError, match="name"):
            Options.for_surface("actor", name="")


class TestUnknownKeys:
    """Every surface rejects unknown keys through the one shared path."""

    def test_task_options_did_you_mean(self):
        with pytest.raises(TypeError, match="did you mean 'num_returns'"):
            echo.options(num_return=2)

    def test_task_decorator_unknown_key(self):
        with pytest.raises(TypeError, match="unknown task option"):
            repro.remote(num_gups=1)(lambda x: x)

    def test_actor_options_did_you_mean(self):
        with pytest.raises(TypeError, match="did you mean 'max_restarts'"):
            Counter.options(max_restart=0)

    def test_actor_decorator_unknown_key(self):
        with pytest.raises(TypeError, match="unknown actor option"):

            @repro.remote(checkpoint_intervall=3)
            class Bad:
                pass

    def test_method_options_unknown_key(self, runtime):
        counter = Counter.remote()
        with pytest.raises(TypeError, match="unknown method option"):
            counter.incr.options(num_cpus=1)

    def test_deployment_options_did_you_mean(self):
        with pytest.raises(TypeError, match="did you mean 'max_batch_size'"):
            serve.deployment(max_batchsize=4)

    def test_cross_surface_hint_names_the_other_surface(self):
        # 'checkpoint_interval' is an actor knob; the task error says so.
        with pytest.raises(TypeError, match="actor"):
            echo.options(checkpoint_interval=3)


class TestChaining:
    def test_task_options_chain_merges(self, runtime):
        g = heavy.options(num_returns=1).options(max_retries=2)
        # Both the decorator resources and the first options() survive.
        assert g._resources.get("CPU") == 2
        assert g._max_retries == 2
        assert repro.get(g.remote(7)) == 7

    def test_task_options_resources_override(self):
        g = heavy.options(num_cpus=1)
        assert g._resources.get("CPU") == 1

    def test_actor_options_keep_decorator_resources(self, runtime):
        """Regression: ActorClass.options used to reset resources to the
        default when no resource key was passed."""
        scoped = Counter.options(max_restarts=0)
        assert scoped._resources.get("CPU") == 2
        actor = scoped.remote()
        state = runtime.actors.get_state(actor.actor_id)
        assert state.max_restarts == 0

    def test_actor_options_chain_merges(self, runtime):
        scoped = Counter.options(name="chained").options(max_restarts=1)
        assert scoped._name == "chained"
        assert scoped._max_restarts == 1
        actor = scoped.remote()
        assert repro.get_actor("chained").actor_id == actor.actor_id

    def test_method_options_chain_merges(self, runtime):
        counter = Counter.remote()
        bound = counter.incr.options(max_retries=2).options(num_returns=1)
        assert bound._max_retries == 2
        assert repro.get(bound.remote()) == 1

    def test_deployment_options_chain_merges(self):
        @serve.deployment(num_replicas=2, max_batch_size=4)
        def model(x):
            return x

        tuned = model.options(max_batch_size=8).options(batch_wait_timeout_s=0.01)
        assert tuned.opts.get("num_replicas") == 2
        assert tuned.opts.get("max_batch_size") == 8
        assert tuned.opts.get("batch_wait_timeout_s") == 0.01


class TestInitValidation:
    def test_unknown_override_rejected_before_startup(self):
        with pytest.raises(TypeError, match="did you mean 'num_nodes'"):
            repro.init(num_nodez=2)
        assert not repro.is_initialized()

    def test_error_lists_valid_fields(self):
        with pytest.raises(TypeError, match="gcs_shards"):
            repro.init(definitely_not_a_field=1)

    @pytest.mark.parametrize(
        "retired",
        [
            "gcs_batched_writes",
            "worker_pool",
            "submit_fastpath",
            "gcs_client_cache",
            "value_cache_enabled",
            "prefetch_parallelism",
            "scheduler_delay",
            "retry_backoff_base",
            "serve_report_interval_seconds",
        ],
    )
    def test_retired_toggle_fails_loudly(self, retired):
        """The legacy-path toggles and the one-value knobs are gone: an old
        config is refused, not silently ignored."""
        with pytest.raises(TypeError, match=retired):
            repro.init(**{retired: False})
        assert not repro.is_initialized()

    def test_describe_covers_every_field(self):
        rows = repro.RuntimeConfig.describe()
        names = {row["name"] for row in rows}
        assert names == set(repro.RuntimeConfig.__dataclass_fields__)
        for row in rows:
            assert row["doc"], f"field {row['name']} has no doc line"


class TestHandleReprs:
    def test_actor_handle_repr_carries_name_and_incarnation(self, runtime):
        actor = Counter.options(name="reprtest").remote()
        repro.get(actor.incr.remote())
        text = repr(actor)
        assert "Counter" in text
        assert "name='reprtest'" in text
        assert "incarnation=1" in text
        repro.kill(actor, restart=True)
        assert repro.get(actor.incr.remote(), timeout=20) == 2
        assert "incarnation=2" in repr(actor)

    def test_actor_handle_repr_without_runtime_state(self):
        from repro.common.ids import ActorID

        handle = repro.ActorHandle(ActorID.from_seed("repr-orphan"))
        assert handle.actor_id.hex()[:12] in repr(handle)
