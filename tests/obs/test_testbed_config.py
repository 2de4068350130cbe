"""The consolidated TestbedConfig API; the keyword form is gone."""

import pytest

from repro import Testbed, TestbedConfig
from repro.maintenance.dred import MaintenancePolicy
from repro.obs import Tracer


class TestConfigForm:
    def test_defaults(self):
        config = TestbedConfig()
        assert config.path == ":memory:"
        assert config.compiled_rule_storage is True
        assert isinstance(config.maintenance_policy, MaintenancePolicy)
        assert config.trace is False

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            TestbedConfig().trace = True  # type: ignore[misc]

    def test_testbed_accepts_config(self):
        with Testbed(TestbedConfig(compiled_rule_storage=False)) as testbed:
            assert testbed.config.compiled_rule_storage is False
            assert testbed.stored.compiled_storage is False
            assert testbed.tracer is None
            testbed.define("parent(ann, bob).")
            assert len(testbed.query("?- parent(ann, X).").rows) == 1

    def test_config_trace_enables_tracer(self):
        with Testbed(TestbedConfig(trace=True)) as testbed:
            assert testbed.tracer is not None
            assert isinstance(testbed.tracer, Tracer)
            assert testbed.database.tracer is testbed.tracer

    def test_positional_path_string_does_not_warn(self, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Testbed(str(tmp_path / "db.sqlite")) as testbed:
                assert testbed.config.path.endswith("db.sqlite")


class TestKeywordForm:
    def test_keyword_configuration_is_rejected(self):
        with pytest.raises(TypeError):
            Testbed(compiled_rule_storage=False)
