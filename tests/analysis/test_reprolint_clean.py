"""The real tree lints clean: ``python -m reprolint src tests`` exits 0.

This is the acceptance gate the CI ``lint`` job enforces; running it from
the tier-1 suite as well means a PR cannot land a violation and only find
out in CI.  Full (un-selected) runs also police stale suppressions, so a
directive whose rule stopped firing fails these tests too.
"""

from tests.analysis.conftest import REPO_ROOT

from reprolint.engine import lint_paths


def test_src_and_tests_lint_clean():
    findings = lint_paths(["src", "tests"], root=REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_tools_lint_clean():
    # The linter holds itself to its own hygiene rules.
    findings = lint_paths(["tools"], root=REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_benchmarks_and_examples_lint_clean():
    # The perf harness and the runnable examples ship the same hygiene
    # bar as the library; CI lints them with the same invocation.
    findings = lint_paths(["benchmarks", "examples"], root=REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_perfbench_lint_clean():
    # The repository benchmark is linted like the code it measures.
    findings = lint_paths(["perfbench"], root=REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)
