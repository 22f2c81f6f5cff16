"""Golden-fixture tests: every rule flags its seeded-violation file and
stays silent on its clean counterpart."""

from pathlib import Path

import pytest

from repro.analysis import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"

CASES = {
    "RL001": (FIXTURES / "rl001_violation.py", FIXTURES / "rl001_clean.py"),
    "RL002": (FIXTURES / "rl002_violation.py", FIXTURES / "rl002_clean.py"),
    "RL003": (FIXTURES / "rl003_violation.py", FIXTURES / "rl003_clean.py"),
    "RL004": (
        FIXTURES / "repro" / "net" / "rl004_violation.py",
        FIXTURES / "repro" / "net" / "rl004_clean.py",
    ),
    "RL005": (FIXTURES / "rl005_violation.py", FIXTURES / "rl005_clean.py"),
}

#: RL005 on resources created behind a conditional default.
RL005_CONDITIONAL = (
    FIXTURES / "rl005_conditional_violation.py",
    FIXTURES / "rl005_conditional_clean.py",
)


def _findings(path: Path, rule: str):
    result = run_analysis([path], rules=[rule], root=FIXTURES)
    return result.findings


@pytest.mark.parametrize("rule", sorted(CASES))
def test_violation_fixture_is_flagged(rule):
    violation, _ = CASES[rule]
    found = _findings(violation, rule)
    assert found, f"{rule} missed every seeded violation in {violation.name}"
    assert all(f.rule_id == rule for f in found)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_clean_fixture_passes(rule):
    _, clean = CASES[rule]
    assert _findings(clean, rule) == [], f"{rule} false-positive on clean file"


def test_rl001_flags_both_inference_and_registry():
    found = _findings(CASES["RL001"][0], "RL001")
    symbols = {f.symbol for f in found}
    assert "Telemetry.peek" in symbols  # inferred guard
    assert "LatencyStats.reset" in symbols  # registry guard


def test_rl001_reports_line_and_fix_hint():
    found = _findings(CASES["RL001"][0], "RL001")
    peek = next(f for f in found if f.symbol == "Telemetry.peek")
    assert peek.line > 0
    assert peek.path.endswith("rl001_violation.py")
    assert "lock" in peek.hint


def test_rl002_names_both_locks_in_the_cycle():
    found = _findings(CASES["RL002"][0], "RL002")
    assert len(found) == 1
    message = found[0].message
    assert "Pipeline._data_lock" in message
    assert "Pipeline._stats_lock" in message


def test_rl003_flags_every_seeded_mutation():
    found = _findings(CASES["RL003"][0], "RL003")
    # patch_layout seeds 5, patch_via_alias 1, ColumnarStateStore.poke 1.
    assert len(found) == 7, [f.render() for f in found]
    assert {f.symbol for f in found} == {
        "patch_layout",
        "patch_via_alias",
        "ColumnarStateStore.poke",
    }


def test_rl004_scopes_to_repro_net():
    # The same blocking code outside the repro.net prefix is not flagged.
    source = (CASES["RL004"][0]).read_text(encoding="utf-8")
    outside = FIXTURES / "rl001_clean.py"  # any non-net module location
    copy = outside.parent / "_tmp_outside_net.py"
    copy.write_text(source, encoding="utf-8")
    try:
        assert _findings(copy, "RL004") == []
    finally:
        copy.unlink()


def test_rl004_flags_each_blocking_shape():
    found = _findings(CASES["RL004"][0], "RL004")
    messages = " | ".join(f.message for f in found)
    assert "time.sleep()" in messages
    assert "pickle.dumps()" in messages
    assert ".serve()" in messages
    assert ".shutdown()" in messages


def test_rl005_distinguishes_missing_vs_incomplete_getstate():
    found = _findings(CASES["RL005"][0], "RL005")
    by_symbol = {f.symbol: f.message for f in found}
    assert "defines no __getstate__" in by_symbol["Engine"]
    assert "does not drop" in by_symbol["Holder"]


def test_rl005_sees_resources_behind_a_conditional_default():
    found = _findings(RL005_CONDITIONAL[0], "RL005")
    flagged = {(f.symbol, f.message.split("self.")[-1]) for f in found}
    assert flagged == {
        ("Service", "_lock but defines no __getstate__"),
        ("Service", "_pool but defines no __getstate__"),
        ("Annotated", "_lock but defines no __getstate__"),
    }, [f.render() for f in found]


def test_rl005_conditional_default_with_getstate_passes():
    assert _findings(RL005_CONDITIONAL[1], "RL005") == []
