"""The workloads: seeded input generators, ops, traced ops and checks.

Every workload builds all of its inputs from the workload seed, in numpy,
before anything is timed; the library sees only those generated arrays,
strings and files (written under `workdir`). An op is one closed-loop call
into the library. Inputs form a cycle that ops walk through in order (op k
uses input k mod cycle). In cli_mix repeats are deliberate (they check
byte-identical output); teleport_sweep's 8192 inputs cover about a minute of
ops, and a run in a fast stretch of the host may wrap around, which does
not change an op's cost, as the library caches nothing. `unit` is the number of consecutive ops that make up one balanced
share of the workload's mix; a run ends on a whole number of units.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
from tracing import patched


def haar_unitaries(rng, n: int, dim: int) -> np.ndarray:
    """n Haar-random dim x dim unitaries (Ginibre QR with the phase fix)."""
    z = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_states(rng, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TeleportSweep:
    """One op: a fresh Haar dressing and Haar input through teleport_all_outcomes."""

    name = "teleport_sweep"
    cycle = 8192
    unit = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.dressings = haar_unitaries(rng, self.cycle, 4)
        self.states = haar_states(rng, self.cycle, 4)

    def setup(self, lib):
        self.lib = lib
        self.epr = lib.epr_pair_channel()
        self.op(0)

    def _args(self, k):
        i = k % self.cycle
        return self.lib.ChannelSpec(self.dressings[i]), self.lib.UnknownState(self.states[i])

    def op(self, k):
        spec, unknown = self._args(k)
        return self.lib.teleport_all_outcomes(unknown, spec)

    def traced(self, k) -> bool:
        """Whether op k of a traced run is traced: every other op."""
        return k % 2 == 1

    def tracing(self, tracer):
        return contextlib.nullcontext()

    def traced_op(self, k, tr):
        """Alternately the composite call and its four composing calls."""
        lib = self.lib
        spec, unknown = self._args(k)
        if (k // 2) % 2 == 0:
            return tr.call("teleport.teleport_all_outcomes", lib.teleport_all_outcomes, unknown, spec)
        basis = tr.call("teleport.measurement_basis", lib.measurement_basis, spec)
        state = tr.call("channel.dressed_channel", lib.dressed_channel, spec)
        corrections = tr.call("teleport.standard_corrections", lib.standard_corrections)
        return tr.call("teleport.run_protocol", lib.run_protocol, unknown, basis, state, corrections)

    def probe(self, k, out, tr):
        """Tensor and channel primitives on this op's own dressing and state."""
        lib = self.lib
        i = k % self.cycle
        register = lib.QubitRegister(("U1", "U2"))
        tr.call("tensor.StateVector", lib.StateVector, register, self.states[i])
        chan = tr.call("tensor.apply_unitary", lib.apply_unitary, self.epr,
                       self.dressings[i], ("B1", "B2"))
        tr.call("tensor.partial_inner", lib.partial_inner, out[0].bob_state, chan)
        rho = tr.call("tensor.reduced_density", lib.reduced_density, chan, ("B1", "B2"))
        tr.call("tensor.hermitian_eigenvalues", lib.hermitian_eigenvalues, rho.matrix)
        tr.call("channel.is_valid_channel", lib.is_valid_channel, chan)

    def check(self, k, out) -> bool:
        return checks.check_teleport_outcomes(self.states[k % self.cycle], out)


# --- cli_mix ----------------------------------------------------------------------

REPRO_SECTIONS = ("channel", "measurement", "ghz", "pairs", "wstate", "triads",
                  "series", "gradient", "invariance")


def _pairs_flat(m):
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def _pairs_nested(m):
    return [_pairs_flat(row) for row in np.asarray(m)]


def _state_arg(c) -> str:
    """--state=<8 reals>; the '=' form, since argparse reads '-0.3,...' as a flag."""
    return "--state=" + ",".join(repr(float(x)) for z in c for x in (z.real, z.imag))


class CliMix:
    """One op: entqc.cli.main(argv) in process, stdout and stderr captured.

    A round is 29 invocations: sixteen `teleport` runs (built-in channels and
    generated channel files in the flat, nested and factored u/v forms, JSON
    and text; fourteen with a seed, two with an explicit state), four error
    paths and the nine cheap-to-mid `repro` sections.
    Five distinct rounds are generated and replayed in turn, so every
    invocation repeats and its output must repeat byte for byte.
    """

    name = "cli_mix"
    rounds = 5

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.invocations = []
        for r in range(self.rounds):
            self.invocations.extend(self._round(rng, r, workdir))
        self.cycle = len(self.invocations)
        self.unit = self.cycle // self.rounds
        self.outputs = {}

    @staticmethod
    def _round(rng, r: int, workdir: str):
        def write(stem, doc_or_text):
            path = os.path.join(workdir, f"{stem}-{r}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text))
            return path

        d, u, v = haar_unitaries(rng, 3, 4)
        nested = haar_unitaries(rng, 1, 4)[0]
        flat = write("dressing", {"name": f"bench-{r}", "dressing": _pairs_flat(d)})
        nest = write("nested", {"dressing": _pairs_nested(nested)})
        factored = write("uv", {"name": f"bench-uv-{r}", "u": _pairs_nested(u), "v": _pairs_nested(v)})
        truncated = json.dumps({"dressing": _pairs_flat(d)})
        bad_json = write("bad", truncated[: int(rng.integers(5, len(truncated) - 5))])
        ginibre = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        non_unitary = write("nonunitary", {"dressing": _pairs_flat(ginibre)})
        states = haar_states(rng, 2, 4)
        seeds = [str(int(s)) for s in rng.integers(0, 2**31, 15 + len(REPRO_SECTIONS))]
        malformed = ("1,0,0,0,0,0,0" if rng.random() < 0.5 else "1,0,0,0,zero,0,0,0")

        def tele(channel, *extra, fmt="json", state=None, expect=0):
            argv = ["teleport", "--channel", channel, *extra]
            if fmt == "text":
                argv += ["--format", "text"]
            return (tuple(argv), expect, fmt, state)

        # Each seeded teleport runs twice (with its own seed), so that the
        # round's median op lies well inside this cluster of like-cost ops
        # rather than at its edge: 11 ops of a round are cheaper, 4 dearer.
        seeded = [("epr", "json"), ("bell-transformed", "text"), (flat, "json"),
                  (flat, "text"), (nest, "json"), (factored, "json"), (factored, "text")]
        group = [tele(channel, "--seed", seed, fmt=fmt)
                 for (channel, fmt), seed in zip(seeded * 2, seeds)]
        group += [
            tele("bell-transformed", _state_arg(states[0]), state=states[0]),
            tele(factored, _state_arg(states[1]), state=states[1]),
            tele("ghz", "--seed", seeds[14], expect=1),
            tele("epr", f"--state={malformed}", expect=2),
            tele(bad_json, expect=2),
            tele(non_unitary, expect=2),
        ]
        text_sections = set(rng.choice(REPRO_SECTIONS, 3, replace=False))
        for name, seed in zip(REPRO_SECTIONS, seeds[15:]):
            fmt = "text" if name in text_sections else "json"
            argv = ["repro", "--section", name, "--seed", seed]
            if fmt == "text":
                argv += ["--format", "text"]
            group.append((tuple(argv), 0, fmt, None))
        return [group[i] for i in rng.permutation(len(group))]

    def setup(self, lib):
        self.lib = lib
        self._main(lib.cli.main, ["teleport", "--channel", "epr", "--seed", "0"])

    def traced(self, k) -> bool:
        """Every other round; with an odd number of distinct rounds, each of
        them is seen both ways."""
        return (k // self.unit) % 2 == 1

    @staticmethod
    def _main(main, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def op(self, k):
        return self._main(self.lib.cli.main, self.invocations[k % self.cycle][0])

    def tracing(self, tr):
        """Trace the library calls cli.main and the report sections make."""
        lib = self.lib
        cli, report = lib.cli, lib.report
        targets = [
            (cli, "resolve_channel", "channel.resolve_channel"),
            (cli, "is_valid_channel", "channel.is_valid_channel"),
            (report, "is_valid_channel", "channel.is_valid_channel"),
            (cli, "teleport_all_outcomes", "teleport.teleport_all_outcomes"),
            (cli, "render_json", "cli.render_json"),
            (cli, "render_text", "cli.render_text"),
            (lib.channel, "reduced_density", "tensor.reduced_density"),
            (lib.entanglement, "reduced_density", "tensor.reduced_density"),
            (report, "reduced_density", "tensor.reduced_density"),
            (lib.entanglement, "hermitian_eigenvalues", "tensor.hermitian_eigenvalues"),
            (report, "hermitian_eigenvalues", "tensor.hermitian_eigenvalues"),
            (report, "pair_analysis", "entanglement.pair_analysis"),
            (report, "triad_analysis", "entanglement.triad_analysis"),
            (report, "witness_value", "entanglement.witness_value"),
            (report, "witness_gradient", "entanglement.witness_gradient"),
        ]
        targets += [(report.SECTION_BUILDERS, name, f"report.section.{name}")
                    for name in REPRO_SECTIONS]
        return patched(tr, targets)

    def traced_op(self, k, tr):
        argv = self.invocations[k % self.cycle][0]
        return self._main(tr.wrap(f"cli.main.{argv[0]}", self.lib.cli.main), argv)

    def probe(self, k, out, tr):
        pass

    def check(self, k, out) -> bool:
        argv, expect, fmt, state = self.invocations[k % self.cycle]
        code, stdout, stderr = out
        first = self.outputs.setdefault(argv, (code, stdout))
        if first != (code, stdout):
            return False
        return checks.check_cli(expect, fmt, state, code, stdout, stderr)


WORKLOADS = {w.name: w for w in (TeleportSweep, CliMix)}
