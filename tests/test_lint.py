"""Tests for the repro.lint static analyzer.

Two layers of coverage:

* **Fixture trees** — synthetic ``src/repro`` packages written into
  ``tmp_path``, one violation (or one clean counterpart) per test, so
  every rule RL001-RL006 has a positive, a negative, a pragma-suppressed
  and a baseline-matched case that does not depend on the live tree.
* **Self-check** — the committed tree must be clean against the
  committed baseline; this is the same assertion the CI lint job makes,
  run locally so a dirty tree fails fast.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import default_repo_root, lint_tree, main
from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
    updated_entries,
)
from repro.lint.core import Finding, all_rules, load_project, run_rules

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Fixture-tree plumbing
# ----------------------------------------------------------------------
#: Minimal satellite modules that keep project-level checks quiet so a
#: fixture can exercise exactly one rule: RL003 wants a detach_flush
#: call under repro.core; RL004 wants a SITES registry; RL006 wants a
#: CHECK_WALK manifest.
_SCAFFOLD = {
    "src/repro/__init__.py": "",
    "src/repro/core/__init__.py": "",
    "src/repro/core/simulator.py": "def shutdown(group):\n    group.detach_flush()\n",
    "src/repro/common/__init__.py": "",
    "src/repro/common/faults.py": "SITES = {}\n",
    "src/repro/sanitize/__init__.py": "CHECK_WALK = {}\n",
}


def make_tree(tmp_path: Path, files: dict) -> Path:
    for rel, text in {**_SCAFFOLD, **files}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def findings_for(tmp_path: Path, files: dict, rule: str) -> list:
    project = load_project(make_tree(tmp_path, files))
    return run_rules(project, [rule])


def symbols(findings: list) -> set:
    return {f.symbol for f in findings}


# ----------------------------------------------------------------------
# Framework basics
# ----------------------------------------------------------------------
def test_registry_has_all_twelve_rules():
    assert set(all_rules()) == {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        "RL007", "RL008", "RL009", "RL010", "RL011", "RL012",
    }


def test_unknown_rule_id_rejected(tmp_path):
    project = load_project(make_tree(tmp_path, {}))
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(project, ["RL999"])


def test_missing_tree_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_project(tmp_path / "nowhere")


def test_finding_fingerprint_is_line_independent():
    a = Finding("RL001", "error", "src/repro/core/x.py", 10, "msg", symbol="f:set")
    b = Finding("RL001", "error", "src/repro/core/x.py", 99, "other", symbol="f:set")
    assert a.fingerprint == b.fingerprint
    assert "RL001" in a.render() and "src/repro/core/x.py:10" in a.render()


# ----------------------------------------------------------------------
# RL001 — hot-path determinism
# ----------------------------------------------------------------------
RL001_BAD = {
    "src/repro/core/engine.py": """\
        import random
        import time

        def step(items):
            t = time.time()
            for x in set(items):
                t += x
            return t
        """,
}


def test_rl001_flags_rng_clock_and_set_iteration(tmp_path):
    found = findings_for(tmp_path, RL001_BAD, "RL001")
    syms = symbols(found)
    assert "import.random" in syms
    assert "import.time" in syms
    assert any(s.endswith(":time.time") for s in syms)
    assert any(s.endswith(":set-iteration") for s in syms)


def test_rl001_clean_module_passes(tmp_path):
    files = {
        "src/repro/core/engine.py": """\
            def step(items):
                total = 0
                for x in sorted(set(items)):
                    total += x
                return total
            """,
    }
    assert findings_for(tmp_path, files, "RL001") == []


def test_rl001_ignores_cold_packages(tmp_path):
    files = {
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/timing.py": "import time\n",
    }
    assert findings_for(tmp_path, files, "RL001") == []


def test_rl001_flags_global_numpy_rng_not_seeded_generator(tmp_path):
    files = {
        "src/repro/core/engine.py": """\
            import numpy as np

            def noisy():
                return np.random.randint(4)

            def seeded(seed):
                return np.random.default_rng(seed).integers(4)
            """,
    }
    found = findings_for(tmp_path, files, "RL001")
    assert len(found) == 1
    assert "np.random.randint" in found[0].symbol


def test_rl001_line_pragma_suppresses(tmp_path):
    files = {
        "src/repro/core/engine.py": (
            "import time  # repro-lint: disable=RL001\n"
        ),
    }
    assert findings_for(tmp_path, files, "RL001") == []


def test_rl001_file_pragma_suppresses(tmp_path):
    files = {
        "src/repro/core/engine.py": (
            "# repro-lint: disable-file=RL001\nimport time\nimport random\n"
        ),
    }
    assert findings_for(tmp_path, files, "RL001") == []


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    files = {
        "src/repro/core/engine.py": (
            "import time  # repro-lint: disable=RL002\n"
        ),
    }
    assert len(findings_for(tmp_path, files, "RL001")) == 1


# ----------------------------------------------------------------------
# RL002 — process-pool safety
# ----------------------------------------------------------------------
def test_rl002_flags_lambda_and_closure_submissions(tmp_path):
    files = {
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/driver.py": """\
            def sweep(jobs, run_jobs):
                return run_jobs(jobs, key=lambda j: j.seed)
            """,
    }
    found = findings_for(tmp_path, files, "RL002")
    assert len(found) == 1 and "lambda" in found[0].message


def test_rl002_module_level_function_passes(tmp_path):
    files = {
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/driver.py": """\
            def by_seed(job):
                return job.seed

            def sweep(jobs, run_jobs):
                return run_jobs(jobs, key=by_seed)
            """,
    }
    assert findings_for(tmp_path, files, "RL002") == []


def test_rl002_flags_lock_state_in_boundary_module(tmp_path):
    files = {
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/parallel.py": """\
            import threading

            class PoolDriver:
                def __init__(self):
                    self.lock = threading.Lock()
            """,
    }
    found = findings_for(tmp_path, files, "RL002")
    assert symbols(found) == {"PoolDriver.lock"}


def test_rl002_getstate_override_passes(tmp_path):
    files = {
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/parallel.py": """\
            import threading

            class PoolDriver:
                def __init__(self):
                    self.lock = threading.Lock()

                def __getstate__(self):
                    return {}
            """,
    }
    assert findings_for(tmp_path, files, "RL002") == []


# ----------------------------------------------------------------------
# RL003 — stat-flush discipline
# ----------------------------------------------------------------------
def test_rl003_flags_counter_without_hook(tmp_path):
    files = {
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/widget.py": """\
            class Widget:
                def bump(self):
                    self._n_hits += 1
            """,
    }
    found = findings_for(tmp_path, files, "RL003")
    assert symbols(found) == {"Widget:no-hook"}


def test_rl003_flags_unflushed_and_unzeroed_counters(tmp_path):
    files = {
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/widget.py": """\
            class Widget:
                def __init__(self, stats):
                    self._n_hits = 0
                    self._n_misses = 0
                    stats.bind_flush(self._flush)

                def bump(self):
                    self._n_hits += 1
                    self._n_misses += 1

                def _flush(self):
                    self.stats["hits"] = self._n_hits  # folded, never zeroed
            """,
    }
    syms = symbols(findings_for(tmp_path, files, "RL003"))
    assert "Widget._n_misses:unflushed" in syms
    assert "Widget._n_hits:not-zeroed" in syms


def test_rl003_fold_and_zero_passes(tmp_path):
    files = {
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/widget.py": """\
            class Widget:
                def __init__(self, stats):
                    self._n_hits = 0
                    stats.bind_flush(self._flush)

                def bump(self):
                    self._n_hits += 1

                def _flush(self):
                    self.stats["hits"] += self._n_hits
                    self._n_hits = 0
            """,
    }
    assert findings_for(tmp_path, files, "RL003") == []


def test_rl003_requires_detach_flush_under_core(tmp_path):
    files = {
        # Override the scaffold: core exists but never detaches hooks.
        "src/repro/core/simulator.py": "def run():\n    return 1\n",
    }
    found = findings_for(tmp_path, files, "RL003")
    assert symbols(found) == {"core:detach_flush-missing"}


# ----------------------------------------------------------------------
# RL004 — fault-site registry
# ----------------------------------------------------------------------
def _rl004_tree(sites: str, call_site: str, test_text: str) -> dict:
    return {
        "src/repro/common/faults.py": f"SITES = {sites}\n",
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/store.py": call_site,
        "tests/test_chaos.py": test_text,
    }


def test_rl004_flags_unregistered_and_untested_sites(tmp_path):
    files = _rl004_tree(
        sites='{"disk": "disk eats a write"}',
        call_site='def save(fault_point):\n    fault_point("rogue")\n',
        test_text="PLAN = 'raise@disk'\n",
    )
    syms = symbols(findings_for(tmp_path, files, "RL004"))
    # "rogue" is used but unregistered; "disk" is registered but unused.
    assert "site:rogue:unregistered" in syms
    assert "site:disk:stale" in syms


def test_rl004_flags_registered_but_untested_site(tmp_path):
    files = _rl004_tree(
        sites='{"disk": "disk eats a write"}',
        call_site='def save(fault_point):\n    fault_point("disk")\n',
        test_text="",  # no '@disk' plan anywhere under tests/
    )
    assert symbols(findings_for(tmp_path, files, "RL004")) == {"site:disk:untested"}


def test_rl004_flags_dynamic_site_string(tmp_path):
    files = _rl004_tree(
        sites="{}",
        call_site='def save(fault_point, name):\n    fault_point("x" + name)\n',
        test_text="",
    )
    assert symbols(findings_for(tmp_path, files, "RL004")) == {
        "fault_point:dynamic-site"
    }


def test_rl004_registered_used_tested_site_passes(tmp_path):
    files = _rl004_tree(
        sites='{"disk": "disk eats a write"}',
        call_site='def save(fault_point):\n    fault_point("disk")\n',
        test_text="PLAN = 'raise@disk'\n",
    )
    assert findings_for(tmp_path, files, "RL004") == []


def test_rl004_missing_registry_is_a_finding(tmp_path):
    files = {"src/repro/common/faults.py": "KINDS = ()\n"}
    assert symbols(findings_for(tmp_path, files, "RL004")) == {"SITES:missing"}


# ----------------------------------------------------------------------
# RL005 — config/CLI coverage
# ----------------------------------------------------------------------
_CONFIG_STUB = """\
    from dataclasses import dataclass

    @dataclass
    class SimulationConfig:
        depth: int = 4
        dead_knob: int = 0

        @property
        def half_depth(self):
            return self.depth // 2
    """


def test_rl005_flags_unread_config_field(tmp_path):
    files = {
        "src/repro/common/config.py": _CONFIG_STUB,
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/model.py": "def f(cfg):\n    return cfg.half_depth\n",
    }
    found = findings_for(tmp_path, files, "RL005")
    assert symbols(found) == {"SimulationConfig.dead_knob"}


def test_rl005_derivation_property_counts_as_consumption(tmp_path):
    # depth is only read inside config.py, but via half_depth which *is*
    # read outside — the fixpoint marks it live.
    files = {
        "src/repro/common/config.py": _CONFIG_STUB.replace("dead_knob: int = 0\n", ""),
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/model.py": "def f(cfg):\n    return cfg.half_depth\n",
    }
    assert findings_for(tmp_path, files, "RL005") == []


def test_rl005_flags_dead_cli_flag(tmp_path):
    files = {
        "src/repro/cli.py": """\
            import argparse

            def main():
                p = argparse.ArgumentParser()
                p.add_argument("--depth", type=int)
                p.add_argument("--ghost", type=int)
                args = p.parse_args()
                return args.depth
            """,
    }
    found = findings_for(tmp_path, files, "RL005")
    assert symbols(found) == {"flag:--ghost"}


def test_rl005_getattr_read_counts(tmp_path):
    files = {
        "src/repro/cli.py": """\
            import argparse

            def main():
                p = argparse.ArgumentParser()
                p.add_argument("--ghost", type=int)
                args = p.parse_args()
                return getattr(args, "ghost", None)
            """,
    }
    assert findings_for(tmp_path, files, "RL005") == []


# ----------------------------------------------------------------------
# RL006 — sanitizer wiring
# ----------------------------------------------------------------------
def _rl006_tree(manifest: str) -> dict:
    return {
        "src/repro/sanitize/__init__.py": f"CHECK_WALK = {manifest}\n",
        "src/repro/mem/__init__.py": "",
        "src/repro/mem/cache.py": """\
            class Cache:
                def validate(self):
                    pass
            """,
        "src/repro/mem/walker.py": "def sweep(cache):\n    cache.validate()\n",
    }


def test_rl006_flags_unwired_validator(tmp_path):
    files = _rl006_tree("{}")
    assert symbols(findings_for(tmp_path, files, "RL006")) == {
        "repro.mem.cache.Cache:unwired"
    }


def test_rl006_wired_validator_passes(tmp_path):
    files = _rl006_tree('{"repro.mem.cache.Cache": "repro.mem.walker"}')
    assert findings_for(tmp_path, files, "RL006") == []


def test_rl006_flags_stale_entry_and_dishonest_driver(tmp_path):
    files = _rl006_tree(
        '{"repro.mem.cache.Cache": "repro.core.simulator",'
        ' "repro.mem.cache.Ghost": "repro.mem.walker"}'
    )
    syms = symbols(findings_for(tmp_path, files, "RL006"))
    # Ghost doesn't exist; simulator (scaffold) has no .validate() call.
    assert "repro.mem.cache.Ghost:stale" in syms
    assert "repro.mem.cache.Cache:driver-no-call" in syms


def test_rl006_missing_manifest_is_a_finding(tmp_path):
    files = dict(_rl006_tree("{}"))
    files["src/repro/sanitize/__init__.py"] = "ENABLED = True\n"
    assert symbols(findings_for(tmp_path, files, "RL006")) == {"CHECK_WALK:missing"}


# ----------------------------------------------------------------------
# Baseline mechanics
# ----------------------------------------------------------------------
def _one_finding(tmp_path) -> tuple:
    root = make_tree(tmp_path, {"src/repro/core/engine.py": "import time\n"})
    findings = lint_tree(root, ["RL001"])
    assert len(findings) == 1
    return root, findings


def test_baseline_accepts_matching_fingerprint(tmp_path):
    _, findings = _one_finding(tmp_path)
    entry = BaselineEntry(findings[0].fingerprint, "accepted: test fixture")
    result = apply_baseline(findings, [entry])
    assert result.new == [] and len(result.accepted) == 1 and result.stale == []


def test_baseline_reports_stale_entries(tmp_path):
    _, findings = _one_finding(tmp_path)
    entry = BaselineEntry("RL001:src/repro/core/gone.py:import.time", "fixed long ago")
    result = apply_baseline(findings, [entry])
    assert len(result.new) == 1 and result.stale == [entry]


def test_baseline_roundtrip_and_reason_carryover(tmp_path):
    _, findings = _one_finding(tmp_path)
    path = tmp_path / "baseline.json"
    entries, added, removed = updated_entries(findings, [])
    assert (added, removed) == (1, 0)
    assert entries[0].reason.startswith("TODO")
    save_baseline(path, [BaselineEntry(entries[0].fingerprint, "known debt")])
    # A rewrite keeps the hand-written reason for surviving fingerprints.
    entries2, added2, removed2 = updated_entries(findings, load_baseline(path))
    assert (added2, removed2) == (0, 0)
    assert entries2[0].reason == "known debt"


def test_baseline_rejects_wrong_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError, match="version"):
        load_baseline(path)


def test_save_baseline_is_deterministic(tmp_path):
    """Two writes of the same state are byte-identical: entries sorted
    by fingerprint, object keys sorted, trailing newline."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    entries = [
        BaselineEntry("RL002:src/repro/b.py:sym", "later entry"),
        BaselineEntry("RL001:src/repro/a.py:sym", "earlier entry"),
    ]
    save_baseline(a, entries)
    save_baseline(b, list(reversed(entries)))
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    fps = [e["fingerprint"] for e in json.loads(text)["entries"]]
    assert fps == sorted(fps)
    # Object keys are emitted in sorted order, not insertion order.
    assert text.index('"entries"') < text.index('"version"')


def test_update_baseline_prunes_entries_for_deleted_files(tmp_path):
    """An entry whose file was deleted matches no finding any more; an
    --update-baseline rewrite must drop it, not carry it forever."""
    root, findings = _one_finding(tmp_path)
    ghost = BaselineEntry(
        "RL001:src/repro/core/deleted.py:import.time", "file since removed"
    )
    live = BaselineEntry(findings[0].fingerprint, "real debt")
    entries, added, removed = updated_entries(findings, [ghost, live])
    assert (added, removed) == (0, 1)
    assert [e.fingerprint for e in entries] == [live.fingerprint]
    assert entries[0].reason == "real debt"


# ----------------------------------------------------------------------
# CLI driver (shared by repro-sim lint and python -m repro.lint)
# ----------------------------------------------------------------------
def test_main_exits_nonzero_on_findings(tmp_path, capsys):
    root, _ = _one_finding(tmp_path)
    assert main(["--root", str(root), "--rules", "RL001"]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "1 finding(s)" in out


def test_main_exits_zero_with_baseline(tmp_path, capsys):
    root, findings = _one_finding(tmp_path)
    save_baseline(
        root / "lint-baseline.json",
        [BaselineEntry(findings[0].fingerprint, "fixture debt")],
    )
    assert main(["--root", str(root), "--rules", "RL001"]) == 0
    assert main(["--root", str(root), "--rules", "RL001", "--no-baseline"]) == 1


def test_main_update_baseline_flow(tmp_path, capsys):
    root, _ = _one_finding(tmp_path)
    assert main(["--root", str(root), "--rules", "RL001", "--update-baseline"]) == 0
    err = capsys.readouterr().err
    assert "need a written reason" in err
    assert main(["--root", str(root), "--rules", "RL001"]) == 0
    # Fix the violation: the baseline entry goes stale and the gate fails.
    (root / "src/repro/core/engine.py").write_text("x = 1\n")
    assert main(["--root", str(root), "--rules", "RL001"]) == 1
    assert "stale" in capsys.readouterr().out


def test_main_json_output(tmp_path, capsys):
    root, _ = _one_finding(tmp_path)
    assert main(["--root", str(root), "--rules", "RL001", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["new"] == 1
    assert payload["findings"][0]["rule"] == "RL001"


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        "RL007", "RL008", "RL009", "RL010", "RL011", "RL012",
    ):
        assert rule_id in out


def test_repro_sim_lint_subcommand_forwards(tmp_path, capsys):
    from repro.cli import main as cli_main

    root, _ = _one_finding(tmp_path)
    assert cli_main(["lint", "--root", str(root), "--rules", "RL001"]) == 1
    assert "RL001" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Self-check: the committed tree is clean against the committed baseline
# ----------------------------------------------------------------------
def test_live_tree_is_clean_against_committed_baseline():
    findings = lint_tree(REPO_ROOT)
    entries = load_baseline(REPO_ROOT / "lint-baseline.json")
    result = apply_baseline(findings, entries)
    rendered = "\n".join(f.render() for f in result.new)
    assert not result.new, f"lint findings on the committed tree:\n{rendered}"
    assert not result.stale, f"stale baseline entries: {result.stale}"
    # The acceptance bar: a baseline of at most 5 genuinely-accepted entries.
    assert len(entries) <= 5


def test_default_repo_root_finds_this_repo():
    assert default_repo_root() == REPO_ROOT
