"""The traced run: each module's public functions called in-process and timed
from outside, one span per call, plus a self-check that the spans of the
workload's main command account for the same command run untraced.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dnacipher import cli
from dnacipher.analysis import format_avalanche_report, measure_avalanche
from dnacipher.attack import (
    FailureStage,
    eqkey_from_bytes,
    eqkey_to_bytes,
    equivalent_decrypt,
    recover_equivalent_key,
    recover_k1,
    recover_k2_class,
    recover_map_c,
)
from dnacipher.cipher import decrypt, digits_to_image, encrypt, image_to_digits
from dnacipher.keystream import (
    Keystreams,
    format_key_text,
    keystreams,
    parse_key_text,
    random_key,
    t_sequence,
    z_sequence,
)
from dnacipher.ppm import read_ppm, write_ppm
from dnacipher.synth import natural_image

from workloads import Sizes, kpa_pairs, spawn

# name -> unit, in print order.  `attack.stage4_ms` is derived: the whole
# `recover_equivalent_key` minus its split and stages 1-3.
UNITS = {
    "keystream.z_ms": "ms",
    "keystream.t_ms": "ms",
    "keystream.steps": "count",
    "keystream.ns_per_step": "ns",
    "keystream.encrypt_frac": "frac",
    "cipher.split_ms": "ms",
    "cipher.join_ms": "ms",
    "cipher.encrypt_tables_ms": "ms",
    "cipher.decrypt_tables_ms": "ms",
    "cipher.call_us": "us",
    "attack.split_ms": "ms",
    "attack.stage1_ms": "ms",
    "attack.stage2_ms": "ms",
    "attack.stage3_ms": "ms",
    "attack.stage4_ms": "ms",
    "attack.stage23_frac": "frac",
    "attack.fail_ms": "ms",
    "attack.positions": "count",
    "attack.witness1": "position",
    "attack.witness2": "position",
    "attack.witness3": "position",
    "attack.eqdecrypt_ms": "ms",
    "attack.eqk_io_ms": "ms",
    "analysis.trial_us": "us",
    "ppm.read_ms": "ms",
    "ppm.write_ms": "ms",
    "ppm.mb_s": "MB/s",
    "cli.import_ms": "ms",
    "cli.other_ms": "ms",
    "trace.residual_ms": "ms",
    "trace.overhead_frac": "frac",
}

# Main command of each workload, the one the self-check decomposes.
MAIN_COMMAND = {"cipher-bulk": "encrypt", "kpa-break": "attack", "avalanche-sweep": "avalanche"}

# Residuals of commands shorter than this are reported but not judged: at
# that length argparse and file-system noise are as large as the work.
SELF_CHECK_MIN_MS = 50.0
SELF_CHECK_TOLERANCE = 0.15

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dnacipher.cli; "
    "print(time.perf_counter() - t)"
)


class Spans:
    """Durations of timed calls, in milliseconds, per name, in call order."""

    def __init__(self):
        self.ms: dict[str, list[float]] = defaultdict(list)

    def time(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.ms[name].append((time.perf_counter() - t0) * 1e3)
        return out

    def last(self, name: str) -> float:
        return self.ms[name][-1]


class TracedRun:
    """All inputs of the traced run, generated once from the seed; `round()`
    times every layer once and may be repeated."""

    def __init__(self, workload: str, workdir: Path, seed: int, sizes: Sizes,
                 python: str, env: dict[str, str]):
        self.workload, self.workdir, self.python, self.env = workload, workdir, python, env
        self.n = sizes.small if workload == "avalanche-sweep" else sizes.image
        # A few hundred trials give a steady per-trial time; the workload's
        # full count only lengthens the round.
        self.trials = min(sizes.trials, 200)
        self.pairs = kpa_pairs(seed, self.n)
        rng = np.random.default_rng(seed + 1)
        self.key = random_key(rng)
        self.small_key = random_key(rng)
        self.small_img = natural_image(sizes.small, sizes.small, seed + 2)
        self.small_streams = keystreams(self.small_key, sizes.small**2)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.untraced_ms: list[float] = []
        self.spans_ms: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self._write_main_inputs()

    def _expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    def _write_main_inputs(self) -> None:
        plain, cipher = self.pairs["known"]
        files = {
            "key.txt": format_key_text(self.key).encode("utf-8"),
            "plain.ppm": write_ppm(plain),
            "cipher.ppm": write_ppm(cipher),
            "small_key.txt": format_key_text(self.small_key).encode("utf-8"),
            "small.ppm": write_ppm(self.small_img),
        }
        for name, data in files.items():
            (self.workdir / name).write_bytes(data)

    def round(self) -> None:
        s = Spans()
        v = self.values
        plain, cipher = self.pairs["known"]
        other_plain, other_cipher = self.pairs["other"]
        pixels = self.n * self.n

        data = s.time("ppm.write", write_ppm, plain)
        back = s.time("ppm.read", read_ppm, data)
        self._expect(back == plain, "ppm round trip")
        v["ppm.write_ms"].append(s.last("ppm.write"))
        v["ppm.read_ms"].append(s.last("ppm.read"))
        v["ppm.mb_s"].append(2 * len(data) / 1e6 / ((s.last("ppm.write") + s.last("ppm.read")) / 1e3))

        key = self.key
        z = s.time("z", z_sequence, key.x0, key.mu0, pixels)
        t = s.time("t", t_sequence, key.x0p, key.mu0p, pixels)
        streams = Keystreams(z, t)
        v["keystream.z_ms"].append(s.last("z"))
        v["keystream.t_ms"].append(s.last("t"))
        v["keystream.steps"].append(5 * pixels)
        v["keystream.ns_per_step"].append((s.last("z") + s.last("t")) * 1e6 / (5 * pixels))

        digits = s.time("split", image_to_digits, plain)
        s.time("join", digits_to_image, digits)
        enc = s.time("enc", encrypt, plain, key, streams)
        dec = s.time("dec", decrypt, enc, key, streams)
        self._expect(dec == plain, "decrypt(encrypt) with injected streams")
        v["cipher.split_ms"].append(s.last("split"))
        v["cipher.join_ms"].append(s.last("join"))
        v["cipher.encrypt_tables_ms"].append(s.last("enc"))
        v["cipher.decrypt_tables_ms"].append(s.last("dec"))
        orbit = s.last("z") + s.last("t")
        v["keystream.encrypt_frac"].append(orbit / (orbit + s.last("enc")))
        calls = Spans()
        for _ in range(20):
            calls.time("call", encrypt, self.small_img, self.small_key, self.small_streams)
        v["cipher.call_us"].append(statistics.median(calls.ms["call"]) * 1e3)

        ek = self._attack_round(s, plain, cipher)
        if ek is not None:
            got = s.time("eqdecrypt", equivalent_decrypt, other_cipher, ek)
            self._expect(got == other_plain, "equivalent_decrypt of the second ciphertext")
            back = s.time("eqk_io", lambda: eqkey_from_bytes(eqkey_to_bytes(ek)))
            self._expect(back.k1 == ek.k1 and (back.h == ek.h).all(), "eqk round trip")
            v["attack.eqdecrypt_ms"].append(s.last("eqdecrypt"))
            v["attack.eqk_io_ms"].append(s.last("eqk_io"))

        report = s.time("avalanche", measure_avalanche, self.small_img, self.small_key, self.trials)
        self._expect(report.locality_violations == 0, "avalanche locality_violations=0")
        v["analysis.trial_us"].append(s.last("avalanche") * 1e3 / self.trials)

        out = subprocess.run([self.python, "-c", _IMPORT_PROBE], env=self.env,
                             capture_output=True, text=True, check=True)
        v["cli.import_ms"].append(float(out.stdout) * 1e3)

        self._self_check()

    def _attack_round(self, s: Spans, plain, cipher):
        """Times the stages of the known-pair attack and the failing
        constant-pair attack; returns the recovered equivalent key."""
        v = self.values
        pd, cd = s.time("a.split", lambda: (image_to_digits(plain), image_to_digits(cipher)))
        map_c, w1 = s.time("s1", recover_map_c, pd, cd)
        k1, w2 = s.time("s2", recover_k1, pd, cd, map_c)
        _, w3 = s.time("s3", recover_k2_class, pd, cd, k1)
        report = s.time("total", recover_equivalent_key, plain, cipher)
        self._expect(report.recovered is not None, "attack on the known pair succeeds")
        self._expect((report.step1_witness, report.step2_witness, report.step3_witness) == (w1, w2, w3),
                     "stage witnesses agree with recover_equivalent_key")
        parts = [s.last(n) for n in ("a.split", "s1", "s2", "s3")]
        v["attack.split_ms"].append(parts[0])
        v["attack.stage1_ms"].append(parts[1])
        v["attack.stage2_ms"].append(parts[2])
        v["attack.stage3_ms"].append(parts[3])
        v["attack.stage4_ms"].append(s.last("total") - sum(parts))
        v["attack.stage23_frac"].append((parts[2] + parts[3]) / s.last("total"))
        v["attack.positions"].append(cd.r.size)
        v["attack.witness1"].append(w1)
        v["attack.witness2"].append(w2)
        v["attack.witness3"].append(w3)
        flat = s.time("fail", recover_equivalent_key, *self.pairs["flat"])
        self._expect(flat.failure_stage is FailureStage.NO_STEP2_WITNESS,
                     "constant pair fails with NoStep2Witness")
        v["attack.fail_ms"].append(s.last("fail"))
        return report.recovered

    def _main_argv(self) -> list[str]:
        cmd = MAIN_COMMAND[self.workload]
        f = lambda name: str(self.workdir / name)  # noqa: E731
        if cmd == "encrypt":
            return ["encrypt", "--key", f("key.txt"), "--in", f("plain.ppm"), "--out", f("out.ppm")]
        if cmd == "attack":
            return ["attack", "--plain", f("plain.ppm"), "--cipher", f("cipher.ppm"),
                    "--out", f("out.eqk"), "--report", f("out.txt")]
        return ["avalanche", "--key", f("small_key.txt"), "--in", f("small.ppm"),
                "--trials", str(self.trials), "--report", f("out.txt"), "--seed", "0"]

    def _traced_main(self, s: Spans) -> None:
        """The main command's work as the CLI does it, one span per call."""
        cmd = MAIN_COMMAND[self.workload]
        wd = self.workdir
        load = lambda name: read_ppm((wd / name).read_bytes())  # noqa: E731
        if cmd == "encrypt":
            key = s.time("m.key", lambda: parse_key_text((wd / "key.txt").read_text()))
            img = s.time("m.read", load, "plain.ppm")
            streams = s.time("m.keystreams", keystreams, key, img.pixel_count)
            out = s.time("m.encrypt", encrypt, img, key, streams)
            s.time("m.write", lambda: (wd / "out.ppm").write_bytes(write_ppm(out)))
        elif cmd == "attack":
            plain = s.time("m.read", load, "plain.ppm")
            cipher = s.time("m.read2", load, "cipher.ppm")
            report = s.time("m.attack", recover_equivalent_key, plain, cipher)
            s.time("m.write", lambda: (wd / "out.eqk").write_bytes(eqkey_to_bytes(report.recovered)))
        else:
            key = s.time("m.key", lambda: parse_key_text((wd / "small_key.txt").read_text()))
            img = s.time("m.read", load, "small.ppm")
            report = s.time("m.avalanche", measure_avalanche, img, key, self.trials, 0)
            s.time("m.write", lambda: (wd / "out.txt").write_text(format_avalanche_report(report)))

    def _untraced_main(self, argv: list[str]) -> float:
        t0 = time.perf_counter()
        code = cli.main(argv)
        self._expect(code == 0, f"in-process {argv[0]} exits 0")
        return (time.perf_counter() - t0) * 1e3

    def _self_check(self) -> None:
        """The main command three ways: untraced in-process, as spans, and as
        a CLI process.  The order of the first two alternates per round."""
        argv = self._main_argv()
        s = Spans()
        if len(self.untraced_ms) % 2:
            s.time("traced", self._traced_main, s)
            untraced = self._untraced_main(argv)
        else:
            untraced = self._untraced_main(argv)
            s.time("traced", self._traced_main, s)
        traced = s.ms.pop("traced")[0]
        spans = sum(sum(ms) for ms in s.ms.values())
        code, wall, _, _ = spawn([self.python, "-m", "dnacipher", *argv], self.env, self.workdir)
        self._expect(code == 0, f"CLI {argv[0]} exits 0")
        self.untraced_ms.append(untraced)
        self.spans_ms.append(spans)
        v = self.values
        v["trace.residual_ms"].append(untraced - spans)
        v["trace.overhead_frac"].append((traced - untraced) / untraced)
        v["cli.other_ms"].append(wall * 1e3 - spans)

    def finish(self) -> dict[str, float]:
        """Medians over rounds, after judging the self-check on them."""
        untraced = statistics.median(self.untraced_ms)
        spans = statistics.median(self.spans_ms)
        if untraced >= SELF_CHECK_MIN_MS:
            self._expect(abs(untraced - spans) <= SELF_CHECK_TOLERANCE * untraced,
                         f"spans ({spans:.1f} ms) account for the untraced "
                         f"{MAIN_COMMAND[self.workload]} ({untraced:.1f} ms)")
        # A layer whose call failed has no samples; the failure is already
        # in `errors`, so it is left out rather than invented.
        return {name: statistics.median(self.values[name]) for name in UNITS if self.values[name]}


def table_rows(m: dict[str, float], n: int) -> list[str]:
    """The layer split and attack stage split, in the layout of the
    ROADMAP baseline table."""
    orbit = m["keystream.z_ms"] + m["keystream.t_ms"]
    parts = [m[k] for k in ("attack.split_ms", "attack.stage1_ms", "attack.stage2_ms",
                            "attack.stage3_ms", "attack.stage4_ms")]
    stages = " / ".join(f"{ms:.1f}" for ms in parts)
    return [
        f"| layer ({n}x{n}) | ms |",
        "|---|---|",
        f"| `encrypt` end to end (keystream included; derived: orbit + tables) | {orbit + m['cipher.encrypt_tables_ms']:.1f} |",
        f"| `keystreams` ({5 * n * n} Python-loop logistic iterations) | {orbit:.1f} |",
        f"| `encrypt` / `decrypt` with injected streams | {m['cipher.encrypt_tables_ms']:.1f} / {m['cipher.decrypt_tables_ms']:.1f} |",
        f"| `recover_equivalent_key` | {sum(parts):.1f} |",
        f"| - digit split x2 / stage 1 / stage 2 / stage 3 / stage 4 (derived) | {stages} |",
        f"| `equivalent_decrypt` | {m['attack.eqdecrypt_ms']:.1f} |",
        f"| PPM write+read | {m['ppm.write_ms'] + m['ppm.read_ms']:.2f} |",
    ]
