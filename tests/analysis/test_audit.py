"""Reflection audits: engine API parity and parity-test coverage."""

from repro.analysis import (
    audit_engine_api,
    audit_kernel_parity_coverage,
    audit_parity_coverage,
    run_audits,
)


class TestEngineApiAudit:
    def test_live_engines_expose_identical_apis(self):
        assert audit_engine_api() == []


class TestParityCoverageAudit:
    def test_live_test_suite_covers_every_shared_engine_attack(self):
        assert audit_parity_coverage() == []

    def test_empty_test_set_reports_every_attack(self):
        from repro.attacks.campaign import SHARED_ENGINE_ATTACKS

        findings = audit_parity_coverage(test_paths=[])
        assert len(findings) == len(SHARED_ENGINE_ATTACKS)
        assert all(f.rule == "parity-test-coverage" for f in findings)
        named = " ".join(f.message for f in findings)
        for attack_name in SHARED_ENGINE_ATTACKS:
            assert attack_name in named

    def test_partial_coverage_reports_only_the_missing(self, tmp_path):
        partial = tmp_path / "test_partial.py"
        partial.write_text(
            "class TestBinarizedBackendParity:\n"
            "    def test_it(self):\n"
            "        BinarizedAttack()\n"
        )
        findings = audit_parity_coverage(test_paths=[partial])
        missing = {f.message.split("'")[1] for f in findings}
        assert "binarizedattack" not in missing
        assert "random" in missing

    def test_class_without_parity_in_name_does_not_count(self, tmp_path):
        module = tmp_path / "test_other.py"
        module.write_text(
            "class TestSomethingElse:\n"
            "    def test_it(self):\n"
            "        BinarizedAttack()\n"
        )
        findings = audit_parity_coverage(test_paths=[module])
        named = " ".join(f.message for f in findings)
        assert "binarizedattack" in named


class TestKernelParityCoverageAudit:
    def test_live_test_suite_covers_every_registry_kernel(self):
        assert audit_kernel_parity_coverage() == []

    def test_empty_test_set_reports_every_kernel(self):
        from repro.kernels import KERNEL_REGISTRY

        findings = audit_kernel_parity_coverage(test_paths=[])
        assert len(findings) == len(KERNEL_REGISTRY)
        assert all(f.rule == "kernel-parity-coverage" for f in findings)
        named = " ".join(f.message for f in findings)
        for kernel_name in KERNEL_REGISTRY:
            assert kernel_name in named

    def test_partial_coverage_reports_only_the_missing(self, tmp_path):
        partial = tmp_path / "test_partial.py"
        partial.write_text(
            "class TestToggleBatchParity:\n"
            '    KERNEL = "toggle_batch"\n'
            "    def test_it(self):\n"
            "        pass\n"
        )
        findings = audit_kernel_parity_coverage(test_paths=[partial])
        missing = {f.message.split("'")[1] for f in findings}
        assert "toggle_batch" not in missing
        assert "scatter_gradient" in missing

    def test_class_without_parity_in_name_does_not_count(self, tmp_path):
        module = tmp_path / "test_other.py"
        module.write_text(
            "class TestToggleBatchSpeed:\n"
            '    KERNEL = "toggle_batch"\n'
            "    def test_it(self):\n"
            "        pass\n"
        )
        findings = audit_kernel_parity_coverage(test_paths=[module])
        named = " ".join(f.message for f in findings)
        assert "toggle_batch" in named


def test_run_audits_is_clean_on_this_repo():
    assert run_audits() == []
