"""The reachability census script (``scripts/reachability_census.py``).

The census itself runs outside tier-1, as its own CI step; these checks
keep its flow list in step with the CI workflow and pin what it counts
as a function.
"""

import importlib.util
import os
import pathlib
import re
import subprocess
import tempfile

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_CENSUS_PATH = _ROOT / "scripts" / "reachability_census.py"

#: Prepended to a workflow step's script: ``python -m repro`` appends its
#: REPRO_AUDIT, REPRO_NO_MEMO and argv to $REPRO_CI_LOG instead of
#: running; every other command the repro steps run is a no-op.
_RECORDER = r"""
python() {
  if [ "$1" = -m ] && [ "$2" = repro ]; then
    shift 2
    printf '%s\037' "${REPRO_AUDIT-}" "${REPRO_NO_MEMO-}" "$@" >> "$REPRO_CI_LOG"
    printf '\036' >> "$REPRO_CI_LOG"
  fi
}
python3() { :; }
cmp() { :; }
"""


def _load_census():
    spec = importlib.util.spec_from_file_location("reachability_census", _CENSUS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


def _run_scripts(workflow):
    """Each step's ``run:`` script; folded (``>``) blocks joined by
    spaces, literal (``|``) ones by newlines."""
    lines = workflow.splitlines()
    scripts, i = [], 0
    while i < len(lines):
        match = re.match(r"\s*(?:- )?run: (.*)$", lines[i])
        i += 1
        if not match:
            continue
        column, value = lines[i - 1].index("run:"), match.group(1)
        if value not in (">", "|"):
            scripts.append(value)
            continue
        body = []
        while i < len(lines) and (
            not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > column
        ):
            body.append(lines[i].strip())
            i += 1
        scripts.append((" " if value == ">" else "\n").join(body))
    return scripts


def _ci_repro_invocations():
    """(REPRO_AUDIT, argv) of every memo-on ``python -m repro`` the CI
    workflow runs, as bash expands its arrays and loops."""
    workflow = (_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    invocations = []
    with tempfile.TemporaryDirectory() as workdir:
        log = os.path.join(workdir, "log")
        env = {**os.environ, "REPRO_CI_LOG": log}
        env.pop("REPRO_AUDIT", None)
        env.pop("REPRO_NO_MEMO", None)
        for script in _run_scripts(workflow):
            if "python -m repro" not in script:
                continue
            open(log, "w").close()
            subprocess.run(["bash", "-c", _RECORDER + script], cwd=workdir, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            with open(log) as records:
                for record in records.read().split("\036")[:-1]:
                    audit, no_memo, *argv = record.split("\037")[:-1]
                    if not no_memo:  # the census's second pass runs every flow memo-off
                        invocations.append((audit, tuple(argv)))
    return invocations


def test_every_ci_repro_invocation_is_a_flow():
    flows = {
        (dict(flow.env).get("REPRO_AUDIT", ""), tuple(flow.argv))
        for flow in census.FLOWS
        if flow.script is None
    }
    invocations = _ci_repro_invocations()
    assert len(invocations) > 15  # the recorder saw the workflow (19 invocations)
    assert [inv for inv in invocations if inv not in flows] == []


def test_every_example_and_the_streaming_check_are_flows():
    scripts = {flow.script for flow in census.FLOWS if flow.script is not None}
    assert set((_ROOT / "examples").glob("*.py")) <= scripts
    assert _ROOT / "scripts" / "check_streaming_memory.py" in scripts


def test_functions_are_defs_with_qualified_names():
    functions = set(census.defined_functions()["repro/tpc/launcher.py"].values())
    assert {
        "partition_members",
        "TpcLauncher.__init__",
        "TpcLauncher.launch",
        "KernelLaunchResult.achieved_bandwidth",
    } == functions
