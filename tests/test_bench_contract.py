"""The benchmark in perfbench/ against the current library.

perfbench's workloads call the library's public names and, when traced,
rebind names inside its modules (cli, report, channel, entanglement). A
refactor that renames or unbinds one of them breaks the benchmark; these
tests run the workloads' set-up, traced ops, probe and tracing hooks in
process, so that shows here. perfbench/ is only read: it goes on sys.path
with bytecode writing off.
"""
import sys
from pathlib import Path

import pytest

import entqc
import entqc.cli  # noqa: F401  (perfbench reads lib.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_teleport_sweep_runs_traced_and_probed(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.TeleportSweep(0, str(tmp_path))
    wl.setup(entqc)
    tracer = tracing.Tracer()
    for k in (1, 3):  # the composite call, then its four composing calls
        out = wl.traced_op(k, tracer)
        assert wl.check(k, out)
        wl.probe(k, out, tracer)
    names = {span[0] for span in tracer.spans}
    assert {"teleport.teleport_all_outcomes", "teleport.run_protocol",
            "tensor.apply_unitary", "channel.is_valid_channel"} <= names


def test_cli_mix_tracing_rebinds_and_restores(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.CliMix(0, str(tmp_path))
    wl.setup(entqc)
    main = entqc.cli.main
    resolve = entqc.cli.resolve_channel
    k = next(i for i, inv in enumerate(wl.invocations) if inv[0][0] == "teleport")
    tracer = tracing.Tracer()
    with wl.tracing(tracer):
        assert entqc.cli.resolve_channel is not resolve
        out = wl.traced_op(k, tracer)
    assert wl.check(k, out)
    assert entqc.cli.main is main and entqc.cli.resolve_channel is resolve
    assert "channel.resolve_channel" in {span[0] for span in tracer.spans}


def test_cli_mix_gradient_section_routes_through_the_rebound_witness(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.CliMix(0, str(tmp_path))
    wl.setup(entqc)
    report = entqc.report
    originals = (report.witness_value, report.witness_gradient)
    k = next(i for i, inv in enumerate(wl.invocations)
             if inv[0][:3] == ("repro", "--section", "gradient"))
    tracer = tracing.Tracer()
    with wl.tracing(tracer):
        out = wl.traced_op(k, tracer)
    assert wl.check(k, out)
    assert {"entanglement.witness_value", "entanglement.witness_gradient"} <= {
        span[0] for span in tracer.spans
    }
    assert (report.witness_value, report.witness_gradient) == originals
    assert originals == (entqc.entanglement.witness_value, entqc.entanglement.witness_gradient)
