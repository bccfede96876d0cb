"""End-to-end CLI tests: subcommand flows, exit codes, report files."""

import os
import re
import shutil
import stat
import subprocess
import sys

import pytest

import dnacipher
from dnacipher import write_ppm
from dnacipher.cli import main
from dnacipher.keystream import format_key_text, parse_key_text
from dnacipher.synth import constant_image, natural_image

from conftest import TRUE_KEY, WRONG_KEY, force_python_orbit, require_native_orbit


@pytest.fixture
def workdir(tmp_path):
    os.makedirs(tmp_path, exist_ok=True)
    return tmp_path


def write_key(path, key):
    path.write_text(format_key_text(key), encoding="utf-8")


def write_image(path, img):
    path.write_bytes(write_ppm(img))


def test_keygen_deterministic(workdir):
    a, b = workdir / "a.key", workdir / "b.key"
    assert main(["keygen", "--out", str(a), "--seed", "42"]) == 0
    assert main(["keygen", "--out", str(b), "--seed", "42"]) == 0
    assert a.read_bytes() == b.read_bytes()
    parse_key_text(a.read_text())  # validates


def test_keygen_different_seeds_differ(workdir):
    a, b = workdir / "a.key", workdir / "b.key"
    main(["keygen", "--out", str(a), "--seed", "1"])
    main(["keygen", "--out", str(b), "--seed", "2"])
    assert a.read_bytes() != b.read_bytes()


def test_encrypt_decrypt_roundtrip(workdir):
    key_path = workdir / "k.key"
    write_key(key_path, TRUE_KEY)
    plain = natural_image(24, 16, seed=50)
    write_image(workdir / "p.ppm", plain)

    assert main(["encrypt", "--key", str(key_path), "--in", str(workdir / "p.ppm"),
                 "--out", str(workdir / "c.ppm")]) == 0
    assert main(["decrypt", "--key", str(key_path), "--in", str(workdir / "c.ppm"),
                 "--out", str(workdir / "p2.ppm")]) == 0
    assert (workdir / "p2.ppm").read_bytes() == (workdir / "p.ppm").read_bytes()
    assert (workdir / "c.ppm").read_bytes() != (workdir / "p.ppm").read_bytes()


def test_encrypt_deterministic(workdir):
    key_path = workdir / "k.key"
    write_key(key_path, TRUE_KEY)
    write_image(workdir / "p.ppm", natural_image(8, 8, seed=51))
    main(["encrypt", "--key", str(key_path), "--in", str(workdir / "p.ppm"),
          "--out", str(workdir / "c1.ppm")])
    main(["encrypt", "--key", str(key_path), "--in", str(workdir / "p.ppm"),
          "--out", str(workdir / "c2.ppm")])
    assert (workdir / "c1.ppm").read_bytes() == (workdir / "c2.ppm").read_bytes()


def test_attack_and_eqdecrypt_flow(workdir, capsys):
    key_path = workdir / "k.key"
    write_key(key_path, TRUE_KEY)
    known = natural_image(48, 48, seed=52)
    other = natural_image(48, 48, seed=53)
    write_image(workdir / "known.ppm", known)
    write_image(workdir / "other.ppm", other)
    main(["encrypt", "--key", str(key_path), "--in", str(workdir / "known.ppm"),
          "--out", str(workdir / "known_c.ppm")])
    main(["encrypt", "--key", str(key_path), "--in", str(workdir / "other.ppm"),
          "--out", str(workdir / "other_c.ppm")])

    code = main(["attack", "--plain", str(workdir / "known.ppm"),
                 "--cipher", str(workdir / "known_c.ppm"),
                 "--out", str(workdir / "e.eqk"),
                 "--report", str(workdir / "r.txt")])
    assert code == 0
    report = (workdir / "r.txt").read_text()
    assert "status=success" in report
    assert "k1=1" in report
    assert "k2_class=ClassB" in report

    code = main(["eqdecrypt", "--eqkey", str(workdir / "e.eqk"),
                 "--in", str(workdir / "other_c.ppm"),
                 "--out", str(workdir / "other_rec.ppm")])
    assert code == 0
    assert (workdir / "other_rec.ppm").read_bytes() == (workdir / "other.ppm").read_bytes()


def test_attack_rejects_mismatched_pair(workdir, capsys):
    # plaintext A with the ciphertext of image B under the same key
    key_path = workdir / "k.key"
    write_key(key_path, TRUE_KEY)
    write_image(workdir / "a.ppm", natural_image(48, 48, seed=52))
    write_image(workdir / "b.ppm", natural_image(48, 48, seed=53))
    main(["encrypt", "--key", str(key_path), "--in", str(workdir / "b.ppm"),
          "--out", str(workdir / "b_c.ppm")])
    capsys.readouterr()
    code = main(["attack", "--plain", str(workdir / "a.ppm"),
                 "--cipher", str(workdir / "b_c.ppm"),
                 "--out", str(workdir / "e.eqk")])
    assert code == 1
    assert not (workdir / "e.eqk").exists()
    assert "not a genuine pair" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "avalanche", "keyleak"])
def test_escaping_key_is_bad_input(workdir, capsys, command):
    # mu < 4 passes validation, but the first iterate rounds to exactly 1.0
    key_path = workdir / "k.key"
    key_path.write_text(
        "k1=1\nk2=1\nx0=0.4999999999417924\nmu0=3.9999999999999996\nx0p=0.3\nmu0p=3.7\n",
        encoding="utf-8",
    )
    write_image(workdir / "p.ppm", natural_image(4, 4, seed=54))
    out = workdir / "out"
    args = {
        "encrypt": ["--key", str(key_path), "--in", str(workdir / "p.ppm"), "--out", str(out)],
        "decrypt": ["--key", str(key_path), "--in", str(workdir / "p.ppm"), "--out", str(out)],
        "avalanche": ["--key", str(key_path), "--in", str(workdir / "p.ppm"),
                      "--trials", "3", "--report", str(out)],
        "keyleak": ["--truekey", str(key_path), "--wrongkey", str(key_path),
                    "--plain", str(workdir / "p.ppm"), "--report", str(out)],
    }[command]
    assert main([command, *args]) == 1
    assert capsys.readouterr().err == "dnacipher: orbit escaped (0, 1) at step 1: 1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["encrypt", "avalanche"])
def test_encrypt_is_silent_and_identical_on_both_orbit_paths(workdir, command):
    # Separate interpreters, each with an empty kernel cache: the native run
    # compiles the kernel library, the other finds no gcc and takes the
    # Python orbit and the numpy S-box.
    write_key(workdir / "k.key", TRUE_KEY)
    write_image(workdir / "p.ppm", natural_image(64, 64, seed=55))
    (workdir / "bin").mkdir()
    src = os.path.dirname(os.path.dirname(dnacipher.__file__))
    runs = {
        "native": {"XDG_CACHE_HOME": str(workdir / "cache-native")},
        "python": {"XDG_CACHE_HOME": str(workdir / "cache-python"), "PATH": str(workdir / "bin")},
    }
    for name, env in runs.items():
        out = ["--out", str(workdir / f"{name}.out")]
        if command == "avalanche":
            out = ["--trials", "300", "--report", str(workdir / f"{name}.out")]
        done = subprocess.run(
            [sys.executable, "-m", "dnacipher", command, "--key", str(workdir / "k.key"),
             "--in", str(workdir / "p.ppm"), *out],
            env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    libs = {name: list((workdir / f"cache-{name}").rglob("*.so")) for name in runs}
    assert len(libs["python"]) == 0
    assert len(libs["native"]) == (shutil.which("gcc") is not None)
    assert (workdir / "native.out").read_bytes() == (workdir / "python.out").read_bytes()


def test_attack_failure_exit_code(workdir, capsys):
    key_path = workdir / "k.key"
    write_key(key_path, TRUE_KEY)
    img = constant_image(8, 8, (0, 0, 0))
    write_image(workdir / "p.ppm", img)
    main(["encrypt", "--key", str(key_path), "--in", str(workdir / "p.ppm"),
          "--out", str(workdir / "c.ppm")])
    code = main(["attack", "--plain", str(workdir / "p.ppm"),
                 "--cipher", str(workdir / "c.ppm"),
                 "--out", str(workdir / "e.eqk"),
                 "--report", str(workdir / "r.txt")])
    assert code == 2
    assert not (workdir / "e.eqk").exists()
    report = (workdir / "r.txt").read_text()
    assert "status=failure" in report
    assert "failure_stage=NoStep1Witness" in report
    err = capsys.readouterr().err
    assert "NoStep1Witness" in err


def test_avalanche_report(workdir):
    key_path = workdir / "k.key"
    write_key(key_path, TRUE_KEY)
    write_image(workdir / "p.ppm", natural_image(16, 16, seed=54))
    code = main(["avalanche", "--key", str(key_path), "--in", str(workdir / "p.ppm"),
                 "--trials", "300", "--report", str(workdir / "av.txt")])
    assert code == 0
    fields = dict(
        line.split("=", 1)
        for line in (workdir / "av.txt").read_text().strip().splitlines()
    )
    assert fields["trials"] == "300"
    assert fields["locality_violations"] == "0"
    assert "claimed_max_changed_bits" in fields
    code = main(["avalanche", "--key", str(key_path), "--in", str(workdir / "p.ppm"),
                 "--trials", "0", "--report", str(workdir / "av0.txt")])
    assert code == 1
    assert not (workdir / "av0.txt").exists()


def test_keyleak_report(workdir):
    write_key(workdir / "true.key", TRUE_KEY)
    write_key(workdir / "wrong.key", WRONG_KEY)
    write_image(workdir / "p.ppm", natural_image(32, 32, seed=55))
    code = main(["keyleak", "--truekey", str(workdir / "true.key"),
                 "--wrongkey", str(workdir / "wrong.key"),
                 "--plain", str(workdir / "p.ppm"),
                 "--report", str(workdir / "leak.txt")])
    assert code == 0
    fields = dict(
        line.split("=", 1)
        for line in (workdir / "leak.txt").read_text().strip().splitlines()
    )
    assert "correlation_G" in fields


def test_missing_input_is_io_error(workdir, capsys):
    write_key(workdir / "k.key", TRUE_KEY)
    code = main(["encrypt", "--key", str(workdir / "k.key"),
                 "--in", str(workdir / "absent.ppm"),
                 "--out", str(workdir / "c.ppm")])
    assert code == 3
    assert "does not exist" in capsys.readouterr().err
    code = main(["encrypt", "--key", str(workdir / "k.key"),
                 "--in", str(workdir),
                 "--out", str(workdir / "c.ppm")])
    assert code == 3
    assert "cannot read" in capsys.readouterr().err


def test_malformed_image_is_input_error(workdir, capsys):
    write_key(workdir / "k.key", TRUE_KEY)
    (workdir / "bad.ppm").write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    code = main(["encrypt", "--key", str(workdir / "k.key"),
                 "--in", str(workdir / "bad.ppm"),
                 "--out", str(workdir / "c.ppm")])
    assert code == 1


def test_malformed_key_is_input_error(workdir, capsys):
    (workdir / "bad.key").write_text("not a key\n")
    write_image(workdir / "p.ppm", natural_image(4, 4, seed=56))
    code = main(["encrypt", "--key", str(workdir / "bad.key"),
                 "--in", str(workdir / "p.ppm"),
                 "--out", str(workdir / "c.ppm")])
    assert code == 1


def test_geometry_mismatch_is_input_error(workdir):
    write_key(workdir / "k.key", TRUE_KEY)
    write_image(workdir / "a.ppm", natural_image(8, 8, seed=57))
    write_image(workdir / "b.ppm", natural_image(4, 4, seed=58))
    code = main(["attack", "--plain", str(workdir / "a.ppm"),
                 "--cipher", str(workdir / "b.ppm"),
                 "--out", str(workdir / "e.eqk")])
    assert code == 1


def test_usage_error_exit_code(workdir, capsys):
    assert main(["encrypt", "--key"]) == 1
    assert main(["frobnicate"]) == 1


def test_unwritable_output_is_io_error(workdir, capsys):
    write_key(workdir / "k.key", TRUE_KEY)
    write_image(workdir / "p.ppm", natural_image(4, 4, seed=59))
    code = main(["encrypt", "--key", str(workdir / "k.key"),
                 "--in", str(workdir / "p.ppm"),
                 "--out", str(workdir / "no" / "such" / "dir" / "c.ppm")])
    assert code == 3
    (workdir / "out").mkdir()
    code = main(["encrypt", "--key", str(workdir / "k.key"),
                 "--in", str(workdir / "p.ppm"),
                 "--out", str(workdir / "out")])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err
    # no stray temp files left behind
    assert not [p for p in os.listdir(workdir) if p.startswith(".tmp-")]


def test_temp_file_names_need_no_hashlib(workdir, monkeypatch):
    # a random .tmp-dnacipher-<16 hex> name, from os.urandom: importing the
    # CLI loads neither secrets nor hashlib
    renamed = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: (renamed.append(a), real_replace(a, b)))
    assert main(["keygen", "--out", str(workdir / "k.key"), "--seed", "3"]) == 0
    assert main(["keygen", "--out", str(workdir / "k2.key"), "--seed", "3"]) == 0
    names = [os.path.basename(a) for a in renamed]
    assert len(set(names)) == 2
    assert all(re.fullmatch(r"\.tmp-dnacipher-[0-9a-f]{16}", name) for name in names), names
    # nor does writing an output (keygen's numpy.random loads secrets itself)
    write_image(workdir / "p.ppm", natural_image(2, 2, seed=61))
    src = os.path.dirname(os.path.dirname(dnacipher.__file__))
    code = (
        "import sys\n"
        "from dnacipher.cli import main\n"
        "assert not {'secrets', 'hashlib'} & set(sys.modules)\n"
        "assert main(['encrypt', '--key', sys.argv[1], '--in', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        "assert not {'secrets', 'hashlib'} & set(sys.modules)\n"
    )
    args = [str(workdir / name) for name in ("k.key", "p.ppm", "c.ppm")]
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_output_modes_follow_umask_except_keys(workdir):
    def run(line):
        command, *args = line.split()
        assert main([command, *(a if a.startswith("--") else str(workdir / a) for a in args)]) == 0

    write_image(workdir / "p.ppm", natural_image(48, 48, seed=52))
    old = os.umask(0o022)
    try:
        assert main(["keygen", "--out", str(workdir / "k.key"), "--seed", "5"]) == 0
        run("encrypt --key k.key --in p.ppm --out c.ppm")
        run("decrypt --key k.key --in c.ppm --out d.ppm")
        run("attack --plain p.ppm --cipher c.ppm --out k.eqk --report r.txt")
        run("eqdecrypt --eqkey k.eqk --in c.ppm --out e.ppm")
        os.umask(0o077)
        run("encrypt --key k.key --in p.ppm --out strict.ppm")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in workdir.iterdir()}
    del modes["p.ppm"]
    assert modes == {
        "k.key": 0o600, "k.eqk": 0o600, "strict.ppm": 0o600,
        "c.ppm": 0o644, "d.ppm": 0o644, "e.ppm": 0o644, "r.txt": 0o644,
    }


def test_bad_eqkey_file_is_input_error(workdir, capsys):
    (workdir / "bad.eqk").write_bytes(b"JUNKJUNKJUNK")
    write_image(workdir / "c.ppm", natural_image(4, 4, seed=60))
    code = main(["eqdecrypt", "--eqkey", str(workdir / "bad.eqk"),
                 "--in", str(workdir / "c.ppm"),
                 "--out", str(workdir / "p.ppm")])
    assert code == 1


def test_mixed_class_eqkey_is_input_error(workdir, capsys):
    # rules 1 (class A) and 2 (class B) in one key: no S-box and mask byte
    # decrypt like it, so eqdecrypt refuses it and writes nothing
    data = dnacipher.eqkey_to_bytes(dnacipher.EquivalentKey(1, [1, 2, 1, 1], 1, 1))
    (workdir / "mixed.eqk").write_bytes(data)
    write_image(workdir / "c.ppm", natural_image(1, 1, seed=61))
    code = main(["eqdecrypt", "--eqkey", str(workdir / "mixed.eqk"),
                 "--in", str(workdir / "c.ppm"), "--out", str(workdir / "p.ppm")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("dnacipher: equivalent key mixes rule classes A and B: rule 1 at "
                   "position 0, rule 2 at position 1\n")
    assert not (workdir / "p.ppm").exists()


def test_encrypt_and_decrypt_import_no_numpy(workdir, monkeypatch):
    # on the native path encrypt and decrypt run bytes in, bytes out on the
    # numpy-free core; forced onto the numpy path, the same commands run the
    # numpy cipher and give the same bytes
    require_native_orbit()
    write_key(workdir / "k.key", TRUE_KEY)
    write_image(workdir / "p.ppm", natural_image(24, 16, seed=62))
    src = os.path.dirname(os.path.dirname(dnacipher.__file__))
    code = (
        "import sys\n"
        "from dnacipher.cli import main\n"
        "k, p, c, d = sys.argv[1:]\n"
        "assert main(['encrypt', '--key', k, '--in', p, '--out', c]) == 0\n"
        "assert main(['decrypt', '--key', k, '--in', c, '--out', d]) == 0\n"
        "from dnacipher import core\n"
        "assert core.orbit_backend() == 'native'\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    args = [str(workdir / name) for name in ("k.key", "p.ppm", "c.ppm", "d.ppm")]
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert (workdir / "d.ppm").read_bytes() == (workdir / "p.ppm").read_bytes()

    from dnacipher import cipher

    ran = []

    def spy(real):
        def run(*args):
            ran.append(real.__name__)
            return real(*args)
        return run

    for name in ("encrypt", "decrypt"):
        monkeypatch.setattr(cipher, name, spy(getattr(cipher, name)))
    force_python_orbit(monkeypatch)
    run = ["--key", args[0]]
    assert main(["encrypt", *run, "--in", args[1], "--out", str(workdir / "c2.ppm")]) == 0
    assert main(["decrypt", *run, "--in", args[2], "--out", str(workdir / "d2.ppm")]) == 0
    assert ran == ["encrypt", "decrypt"]
    assert (workdir / "c2.ppm").read_bytes() == (workdir / "c.ppm").read_bytes()
    assert (workdir / "d2.ppm").read_bytes() == (workdir / "d.ppm").read_bytes()


@pytest.fixture(params=["native", "python"])
def cipher_path(request, monkeypatch):
    """The path encrypt and decrypt take: bytes through the kernel library,
    or the numpy cipher."""
    if request.param == "native":
        require_native_orbit()
    else:
        force_python_orbit(monkeypatch)
    return request.param


ESCAPING_KEY = "k1=1\nk2=1\nx0=0.4999999999417924\nmu0=3.9999999999999996\nx0p=0.3\nmu0p=3.7\n"
# name -> (key text, image file bytes, exit code, stderr after "dnacipher: ");
# {key} and {image} stand for the files' paths
INPUT_ERRORS = {
    "truncated body": (None, b"P6\n2 2\n255\n" + bytes(11), 1,
                       "bad image {image}: truncated pixel data: expected 12 bytes, got 11"),
    "trailing bytes": (None, b"P6\n2 2\n255\n" + bytes(14), 1,
                       "bad image {image}: 2 trailing bytes after pixel data"),
    "bad magic": (None, b"P3\n2 2\n255\n" + bytes(12), 1,
                  "bad image {image}: not a binary PPM (magic b'P3')"),
    "bad maxval": (None, b"P6\n2 2\n65535\n" + bytes(24), 1,
                   "bad image {image}: only maxval 255 is supported, got 65535"),
    "zero width": (None, b"P6\n0 2\n255\n", 1,
                   "bad image {image}: image dimensions must be positive"),
    "malformed key": ("k1=1\nk2=9\nx0=0.3\nmu0=3.7\nx0p=0.3\nmu0p=3.7\n", None, 1,
                      "bad key file {key}: map rule must be in [1, 8], got 9"),
    "escaping key": (ESCAPING_KEY, None, 1, "orbit escaped (0, 1) at step 1: 1.0"),
    # the t-orbit escapes at its step 3, the z-orbit not at all
    "escaping t-orbit": ("k1=1\nk2=1\nx0=0.3\nmu0=3.7\nx0p=0.03806023373878785\n"
                         "mu0p=3.9999999999999996\n", None, 1,
                         "orbit escaped (0, 1) at step 3: 1.0"),
    "missing image": (None, "absent", 3, "input file does not exist: {image}"),
    "missing key": ("absent", None, 3, "input file does not exist: {key}"),
}


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_input_errors_are_the_same_on_both_paths(workdir, capsys, cipher_path, command, case):
    key_text, image, code, message = INPUT_ERRORS[case]
    key, img, out = workdir / "k.key", workdir / "p.ppm", workdir / "out.ppm"
    if key_text != "absent":
        key.write_text(key_text or format_key_text(TRUE_KEY), encoding="utf-8")
    if image != "absent":
        img.write_bytes(image or write_ppm(natural_image(4, 4, seed=63)))
    capsys.readouterr()
    assert main([command, "--key", str(key), "--in", str(img), "--out", str(out)]) == code
    assert capsys.readouterr() == ("", f"dnacipher: {message.format(key=key, image=img)}\n")
    assert not out.exists()
    assert not [p for p in os.listdir(workdir) if p.startswith(".tmp-")]
