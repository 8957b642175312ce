"""Tests for the static analysis suite (``corona-repro lint``).

Covers the rule registry idioms, fixture snippets per rule (positive and
negative), the suppression pragma, the baseline round-trip, the JSON
reporter schema, the self-scan (the repo must be clean modulo the committed
baseline) and the runtime determinism sanitizer.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    AnalysisError,
    Finding,
    LINT_FORMAT,
    RuleCollisionError,
    RuleRegistry,
    UnknownRuleError,
    analyze_paths,
    analyze_source,
    check_determinism,
    compare_replicas,
    load_baseline,
    parse_pragmas,
    partition_findings,
    render_json,
    render_text,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Default fixture path: inside the simulated-time zone (no rule exempt).
SIM_PATH = "src/repro/sim/fixture.py"


def lint(source, path=SIM_PATH, select=None):
    findings, _ = analyze_source(source, path, RULES.select(select=select))
    return findings


def rules_hit(source, path=SIM_PATH):
    return sorted({f.rule for f in lint(source, path)})


class TestRuleRegistry:
    def test_stock_rules_registered(self):
        names = RULES.names()
        determinism = [n for n in names if n.startswith("det-")]
        units = [n for n in names if n.startswith("unit-")]
        assert len(determinism) >= 3
        assert len(units) >= 2

    def test_collision_raises(self):
        registry = RuleRegistry()

        @registry.register("r1", family="f", summary="s")
        def checker(context):
            return []

        with pytest.raises(RuleCollisionError):

            @registry.register("r1", family="f", summary="s")
            def checker2(context):
                return []

    def test_replace_shadows(self):
        registry = RuleRegistry()

        @registry.register("r1", family="f", summary="old")
        def checker(context):
            return []

        @registry.register("r1", family="f", summary="new", replace=True)
        def checker2(context):
            return []

        assert registry.get("r1").summary == "new"
        assert len(registry) == 1

    def test_unknown_rule_lists_registered(self):
        with pytest.raises(UnknownRuleError) as error:
            RULES.select(select=["no-such-rule"])
        assert "no-such-rule" in str(error.value)
        assert "det-set-iter" in str(error.value)

    def test_unknown_ignore_also_fails(self):
        with pytest.raises(UnknownRuleError):
            RULES.select(ignore=["typo-rule"])


class TestSetIterationRule:
    def test_for_over_set_literal(self):
        findings = lint("for x in {1, 2, 3}:\n    print(x)\n")
        assert [f.rule for f in findings] == ["det-set-iter"]
        assert "sorted" in findings[0].suggestion

    def test_for_over_set_call_via_name(self):
        source = "pending = set(items)\nfor x in pending:\n    emit(x)\n"
        assert rules_hit(source) == ["det-set-iter"]

    def test_for_over_set_difference(self):
        source = "for x in set(a) - {1}:\n    emit(x)\n"
        assert rules_hit(source) == ["det-set-iter"]

    def test_list_comprehension_over_set(self):
        assert rules_hit("ys = [f(x) for x in {1, 2}]\n") == ["det-set-iter"]

    def test_list_materialization(self):
        assert rules_hit("ys = list(frozenset(xs))\n") == ["det-set-iter"]

    def test_join_over_set(self):
        assert rules_hit("text = ', '.join({'a', 'b'})\n") == ["det-set-iter"]

    def test_sorted_is_clean(self):
        assert lint("for x in sorted({3, 1, 2}):\n    emit(x)\n") == []

    def test_membership_and_len_are_clean(self):
        source = (
            "seen = set(items)\n"
            "flag = item in seen\n"
            "count = len(seen)\n"
            "lowest = min(seen)\n"
        )
        assert lint(source) == []

    def test_set_comprehension_over_set_is_clean(self):
        # set -> set has no order to leak.
        assert lint("ys = {f(x) for x in {1, 2}}\n") == []

    def test_reassigned_name_is_not_tracked(self):
        source = "xs = set(a)\nxs = sorted(xs)\nfor x in xs:\n    emit(x)\n"
        assert lint(source) == []


class TestFloatAccumulationRule:
    def test_augmented_add_in_set_loop(self):
        source = (
            "total = 0.0\n"
            "for x in weights:\n"
            "    pass\n"
            "values = set(weights)\n"
            "for w in values:\n"
            "    total += w\n"
        )
        assert "det-float-accum" in rules_hit(source)

    def test_sum_over_set(self):
        assert rules_hit("total = sum(set(values))\n") == ["det-float-accum"]

    def test_sum_over_generator_over_set(self):
        source = "s = set(values)\ntotal = sum(v * 2 for v in s)\n"
        assert rules_hit(source) == ["det-float-accum"]

    def test_sum_over_list_is_clean(self):
        assert lint("total = sum(values)\n") == []

    def test_sorted_loop_accumulation_is_clean(self):
        source = (
            "total = 0.0\n"
            "for w in sorted(set(weights)):\n"
            "    total += w\n"
        )
        assert lint(source) == []


class TestUnseededRandomRule:
    def test_module_level_call(self):
        source = "import random\nvalue = random.random()\n"
        findings = lint(source)
        assert [f.rule for f in findings] == ["det-unseeded-random"]
        assert "random.Random(seed)" in findings[0].suggestion

    def test_module_level_seed(self):
        assert rules_hit("import random\nrandom.seed(7)\n") == [
            "det-unseeded-random"
        ]

    def test_from_import_call(self):
        source = "from random import randint\nvalue = randint(1, 6)\n"
        assert rules_hit(source) == ["det-unseeded-random"]

    def test_seeded_instance_is_clean(self):
        source = (
            "import random\n"
            "rng = random.Random(2008)\n"
            "value = rng.random()\n"
        )
        assert lint(source) == []

    def test_unrelated_module_is_clean(self):
        assert lint("import numpy.random\nnumpy.random.rand()\n") == []


class TestWallClockRule:
    def test_perf_counter(self):
        source = "import time\nstarted = time.perf_counter()\n"
        assert rules_hit(source) == ["det-wall-clock"]

    def test_environ_and_getenv(self):
        source = (
            "import os\n"
            "a = os.environ['HOME']\n"
            "b = os.getenv('HOME')\n"
        )
        findings = lint(source)
        assert [f.rule for f in findings] == ["det-wall-clock"] * 2

    def test_id_and_hash_builtins(self):
        source = "key = id(obj)\nbucket = hash(name)\n"
        findings = lint(source)
        assert [f.rule for f in findings] == ["det-wall-clock"] * 2

    def test_uuid4_and_datetime_now(self):
        source = (
            "import uuid\n"
            "import datetime\n"
            "a = uuid.uuid4()\n"
            "b = datetime.datetime.now()\n"
        )
        findings = lint(source)
        assert [f.rule for f in findings] == ["det-wall-clock"] * 2

    def test_harness_zone_is_exempt(self):
        source = "import time\nstarted = time.perf_counter()\n"
        assert lint(source, path="src/repro/harness/fixture.py") == []
        assert lint(source, path="src/repro/obs/fixture.py") == []

    def test_simulated_time_names_are_clean(self):
        # A local attribute that merely *looks* like the time module.
        source = "elapsed = engine.time()\n"
        assert lint(source) == []


class TestMixedArithmeticRule:
    def test_add_across_scales(self):
        findings = lint("total = delay_ns + window_s\n")
        assert [f.rule for f in findings] == ["unit-mixed-arith"]
        assert "delay_ns" in findings[0].message

    def test_subtract_across_dimensions(self):
        assert rules_hit("x = latency_ns - budget_cycles\n") == [
            "unit-mixed-arith"
        ]

    def test_comparison_across_units(self):
        assert rules_hit("flag = deadline_ns < horizon_s\n") == [
            "unit-mixed-arith"
        ]

    def test_same_unit_is_clean(self):
        assert lint("total_ns = a_ns + b_ns\n") == []

    def test_multiplication_is_a_conversion(self):
        # Mult/Div are how conversions are written; never flagged.
        assert lint("ratio = total_bytes / window_s\n") == []
        assert lint("scaled = delay_s * clock_hz\n") == []

    def test_untagged_operand_is_clean(self):
        assert lint("total = delay_ns + 5\n") == []


class TestSuffixDropRule:
    def test_return_with_wrong_suffix(self):
        source = "def latency_ns(job):\n    return job.latency_s\n"
        findings = lint(source)
        assert [f.rule for f in findings] == ["unit-suffix-drop"]
        assert "latency_ns" in findings[0].message

    def test_assignment_with_wrong_suffix(self):
        assert rules_hit("span_ns = window_s\n") == ["unit-suffix-drop"]

    def test_annotated_assignment(self):
        assert rules_hit("span_ns: float = window_s\n") == [
            "unit-suffix-drop"
        ]

    def test_keyword_argument_with_wrong_suffix(self):
        assert rules_hit("record(size_bytes=width_bits)\n") == [
            "unit-suffix-drop"
        ]

    def test_conversion_through_multiplication_is_clean(self):
        source = "def latency_ns(job):\n    return job.latency_s * 1e9\n"
        assert lint(source) == []

    def test_matching_suffixes_are_clean(self):
        source = (
            "def latency_ns(job):\n"
            "    return job.queueing_ns\n"
            "span_s = window_s\n"
            "record(size_bytes=payload_bytes)\n"
        )
        assert lint(source) == []


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        source = (
            "for x in {1, 2}:  # lint: ignore[det-set-iter] order re-sorted\n"
            "    emit(x)\n"
        )
        findings, suppressed = analyze_source(source, SIM_PATH, RULES.rules())
        assert findings == []
        assert [f.rule for f in suppressed] == ["det-set-iter"]

    def test_standalone_pragma_covers_next_line(self):
        source = (
            "# lint: ignore[det-wall-clock] profiling hook\n"
            "import_time = time.perf_counter()\n"
            "import time\n"
        )
        findings, suppressed = analyze_source(source, SIM_PATH, RULES.rules())
        assert findings == []
        assert [f.rule for f in suppressed] == ["det-wall-clock"]

    def test_comma_separated_rule_ids(self):
        source = (
            "total = sum(set(vals)); flag = a_ns < b_s"
            "  # lint: ignore[det-float-accum, unit-mixed-arith] fixture\n"
        )
        findings, suppressed = analyze_source(source, SIM_PATH, RULES.rules())
        assert findings == []
        assert sorted(f.rule for f in suppressed) == [
            "det-float-accum",
            "unit-mixed-arith",
        ]

    def test_wrong_rule_id_does_not_suppress(self):
        source = (
            "for x in {1, 2}:  # lint: ignore[det-wall-clock] wrong id\n"
            "    emit(x)\n"
        )
        findings, suppressed = analyze_source(source, SIM_PATH, RULES.rules())
        assert [f.rule for f in findings] == ["det-set-iter"]
        assert suppressed == []

    def test_parse_pragmas_map(self):
        pragmas = parse_pragmas(
            "x = 1\n"
            "# lint: ignore[r-a] standalone\n"
            "y = 2  # lint: ignore[r-b, r-c] inline\n"
        )
        assert pragmas[2] == {"r-a"}
        assert pragmas[3] == {"r-a", "r-b", "r-c"}


class TestBaseline:
    def make_finding(self, message="m", line=3):
        return Finding(
            file="src/repro/sim/x.py",
            line=line,
            column=1,
            rule="det-set-iter",
            message=message,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [self.make_finding("a"), self.make_finding("b")]
        write_baseline(path, findings)
        baseline = load_baseline(path)
        assert baseline == {
            ("src/repro/sim/x.py", "det-set-iter", "a"): 1,
            ("src/repro/sim/x.py", "det-set-iter", "b"): 1,
        }

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_bad_format_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/9", "findings": []}))
        with pytest.raises(AnalysisError):
            load_baseline(path)

    def test_partition_is_line_insensitive(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.make_finding(line=3)])
        shifted = [self.make_finding(line=40)]
        new, baselined, stale = partition_findings(
            shifted, load_baseline(path)
        )
        assert new == [] and len(baselined) == 1 and stale == {}

    def test_partition_counts_duplicates(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.make_finding()])
        # A second identical hit exceeds the baselined count: new debt.
        new, baselined, _ = partition_findings(
            [self.make_finding(line=3), self.make_finding(line=9)],
            load_baseline(path),
        )
        assert len(baselined) == 1 and len(new) == 1

    def test_partition_reports_stale_entries(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.make_finding("gone")])
        new, baselined, stale = partition_findings([], load_baseline(path))
        assert new == [] and baselined == []
        assert stale == {("src/repro/sim/x.py", "det-set-iter", "gone"): 1}


class TestReporters:
    def run_reports(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim"
        bad.mkdir(parents=True)
        (bad / "fixture.py").write_text(
            "import time\nstarted = time.perf_counter()\n"
            "for x in {1, 2}:\n    emit(x)\n"
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        new, baselined, stale = partition_findings(report.findings, {})
        return report, new, baselined, stale

    def test_json_schema(self, tmp_path):
        report, new, baselined, stale = self.run_reports(tmp_path)
        payload = render_json(report, new, baselined, stale)
        assert payload["format"] == LINT_FORMAT
        assert payload["files_scanned"] == 1
        assert set(payload["summary"]) == {
            "total", "new", "baselined", "suppressed", "stale_baseline",
        }
        assert payload["summary"]["new"] == 2
        for entry in payload["findings"]:
            assert set(entry) == {
                "file", "line", "column", "rule", "message", "suggestion",
                "new",
            }
            assert entry["new"] is True
        # The payload must be JSON-clean.
        json.dumps(payload)

    def test_text_report(self, tmp_path):
        report, new, baselined, stale = self.run_reports(tmp_path)
        text = render_text(report, new, baselined, stale)
        assert "det-set-iter" in text and "det-wall-clock" in text
        assert "2 new" in text

    def test_finding_round_trip(self):
        finding = Finding(
            file="a.py", line=1, column=2, rule="r", message="m",
            suggestion="s",
        )
        assert Finding.from_dict(finding.to_dict()) == finding
        with pytest.raises(ValueError):
            Finding.from_dict({**finding.to_dict(), "bogus": 1})


class TestSelfScan:
    def test_repo_is_clean_modulo_committed_baseline(self):
        report = analyze_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
        )
        baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
        new, _, stale = partition_findings(report.findings, baseline)
        assert new == [], f"new lint findings: {[str(f.to_dict()) for f in new]}"
        assert stale == {}, f"stale baseline entries: {stale}"

    def test_baseline_demonstrates_wall_clock_rule(self):
        # The acceptance contract: det-wall-clock is demonstrated by real
        # baselined findings (harness-side phase timing in the API layer).
        baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
        assert any(rule == "det-wall-clock" for _, rule, _ in baseline)

    def test_pragmas_in_repo_are_honored(self):
        # The chaos hook's env read carries an inline pragma; it must show
        # up as suppressed, not as a finding.
        report = analyze_paths(
            [REPO_ROOT / "src" / "repro" / "faults"], root=REPO_ROOT
        )
        assert any(
            f.rule == "det-wall-clock" for f in report.suppressed
        )
        assert not any(f.rule == "det-wall-clock" for f in report.findings)


class TestRuntimeDeterminism:
    def test_identical_replicas_pass(self):
        check = compare_replicas(
            [{"a/b": "d1", "c/d": "d2"}, {"a/b": "d1", "c/d": "d2"}]
        )
        assert check.ok and check.diverging == []
        assert check.pairs == 2

    def test_diverging_digest_detected(self):
        check = compare_replicas(
            [{"a/b": "d1", "c/d": "d2"}, {"a/b": "d1", "c/d": "XX"}]
        )
        assert not check.ok
        assert check.diverging == ["c/d"]
        assert "NONDETERMINISTIC" in check.summary()

    def test_missing_pair_counts_as_divergence(self):
        check = compare_replicas([{"a/b": "d1"}, {}])
        assert not check.ok and check.diverging == ["a/b"]

    def test_replica_count_validation(self):
        from repro.api import Scenario

        with pytest.raises(ValueError):
            check_determinism(Scenario(), replicas=1)

    def test_fresh_process_replay_is_deterministic(self):
        from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec

        scenario = Scenario(
            name="determinism-check",
            system=SystemSpec(configurations=("XBar/OCM",)),
            workloads=(WorkloadSpec(name="Barnes"),),
            scale=ScaleSpec(tier="quick"),
        )
        check = check_determinism(scenario)
        assert check.ok
        assert check.pairs == 1
        assert "deterministic" in check.summary()

    def test_spawned_pool_workers_exit_quietly(self, tmp_path):
        """The replicas run pool workers under ``spawn``; closing their
        shared-memory blocks at exit must not print ignored
        ``BufferError``s."""
        import os
        import subprocess
        import sys

        from repro.api import Scenario, SystemSpec, WorkloadSpec

        path = tmp_path / "scenario.json"
        Scenario(
            name="quiet-exit",
            system=SystemSpec(configurations=("LMesh/ECM", "XBar/OCM")),
            workloads=(
                WorkloadSpec(name="Uniform", num_requests=400),
                WorkloadSpec(name="Hot Spot", num_requests=400),
            ),
        ).save(path)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(path),
             "--check-determinism", "--jobs", "2"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert done.returncode == 0, done.stderr
        assert "deterministic" in done.stdout
        assert "BufferError" not in done.stderr


class TestLintCli:
    def write_tree(self, tmp_path, source):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text(source)
        return package

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        package = self.write_tree(tmp_path, "x = 1\n")
        code = main(
            ["lint", str(package), "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 0
        assert "0 new" in capsys.readouterr().out

    def test_findings_exit_one_and_baseline_quiets(self, tmp_path, capsys):
        from repro.cli import main

        package = self.write_tree(
            tmp_path, "for x in {1, 2}:\n    print(x)\n"
        )
        baseline = str(tmp_path / "b.json")
        assert main(["lint", str(package), "--baseline", baseline]) == 1
        capsys.readouterr()
        assert (
            main(
                ["lint", str(package), "--baseline", baseline,
                 "--update-baseline"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["lint", str(package), "--baseline", baseline]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        from repro.cli import main

        package = self.write_tree(tmp_path, "span_ns = window_s\n")
        code = main(
            ["lint", str(package), "--format", "json",
             "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == LINT_FORMAT
        assert payload["summary"]["new"] == 1

    def test_select_limits_rules(self, tmp_path, capsys):
        from repro.cli import main

        package = self.write_tree(
            tmp_path,
            "span_ns = window_s\nfor x in {1, 2}:\n    print(x)\n",
        )
        code = main(
            ["lint", str(package), "--select", "unit-suffix-drop",
             "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "unit-suffix-drop" in out and "det-set-iter" not in out

    def test_unknown_rule_is_fatal(self, tmp_path):
        from repro.cli import main

        package = self.write_tree(tmp_path, "x = 1\n")
        with pytest.raises(SystemExit):
            main(["lint", str(package), "--select", "not-a-rule"])

    def test_rules_catalog(self, capsys):
        from repro.cli import main

        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES.names():
            assert rule_id in out
