"""scripts/report_digests.py on runs that write a report and runs that do not."""

import importlib.util
import re
from pathlib import Path

import pytest

from finslerkelvin import norms

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"


@pytest.fixture(scope="module")
def report_digests():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_without_a_report_is_listed_not_fatal(report_digests, monkeypatch,
                                                     capsys):
    # one Newton iteration cannot solve the quartic dual: the CLI exits 2
    # before it writes --out, and the listing goes on to the next run
    monkeypatch.setattr(norms, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(report_digests, "configurations", lambda: [
        ("quartic", ["identities", "--norm", "quartic", "--count", "5"]),
        ("euclidean:2", ["identities", "--norm", "euclidean:2", "--count", "5"]),
    ])
    report_digests.main()
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == "no report  quartic (exit 2)"
    assert re.fullmatch(r"[0-9a-f]{64}  euclidean:2 \(exit 0\)", lines[1])
    assert "error: identities: support maximization did not converge" in out.err


def test_bench_seeds_list_the_benchmark_workloads_by_their_own_arguments(
        report_digests, monkeypatch, capsys):
    calls, cli_main = [], report_digests.cli.main

    def recording_main(argv):
        calls.append(argv)
        return cli_main(argv)

    monkeypatch.setattr(report_digests.cli, "main", recording_main)
    report_digests.main(["--bench-seeds", "0-1", "--count", "8"])
    lines = capsys.readouterr().out.splitlines()
    expected = [(name, seed) for seed in (0, 1) for name in
                ("quadratic-all", "quartic-dual", "riemannian-bulk")]
    assert len(lines) == len(calls) == len(expected)
    for line, argv, (name, seed) in zip(lines, calls, expected):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  {name} seed {seed} \(exit [01]\)",
                            line)
        assert argv == report_digests.WORKLOADS[name].cli_args(seed, 8, argv[-1])
