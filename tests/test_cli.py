"""Command-line interface: flag parsing, exit codes, file outputs."""

import hashlib
import json
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpforge import KernelParams, cli, cvm_test, sample_inputs
from gpforge._streams import LATENT, stream
from gpforge.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bounds_ciq_worked_example(capsys):
    rc, out, _ = run(
        capsys,
        "bounds", "--method", "ciq", "--n", "1000", "--eps", "0.1",
        "--noise-variance", "0.1", "--delta-q", "0.001",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "ciq"
    assert doc["Q"] == 5
    assert isinstance(doc["J"], int) and doc["J"] >= 1
    assert doc["kappa_bound"] > 1.0
    assert doc["regime"] in {"i", "ii", "iii"}
    assert doc["D"] is None


def test_bounds_rff_reports_feature_count(capsys):
    rc, out, _ = run(
        capsys,
        "bounds", "--method", "rff", "--n", "100", "--eps", "0.1",
        "--delta", "0.01", "--noise-variance", "1.0",
    )
    assert rc == 0
    assert json.loads(out)["D"] == 6907756


def test_bounds_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--method", "ciq"])
    assert info.value.code == 2


def test_bounds_json_flag_single_line(capsys):
    rc, out, _ = run(
        capsys, "bounds", "--method", "exact", "--n", "64", "--eps", "0.5", "--json"
    )
    assert rc == 0
    assert len(out.strip().splitlines()) == 1
    assert json.loads(out)["n"] == 64


def test_bounds_delta_q_cap_violation_exits_two(capsys):
    rc, _, err = run(
        capsys,
        "bounds", "--method", "ciq", "--n", "1000", "--eps", "0.1", "--delta-q", "0.9",
    )
    assert rc == 2
    assert "delta_Q" in err


def test_bounds_invalid_kernel_flag_exits_two(capsys):
    rc, _, err = run(
        capsys,
        "bounds", "--method", "exact", "--n", "64", "--eps", "0.5", "--variance", "-1",
    )
    assert rc == 2
    assert "error:" in err


def test_sample_exact_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        rc, _, _ = run(
            capsys,
            "sample", "--method", "exact", "--n", "8", "--seed", "4",
            "--output", str(out),
        )
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "index,y"
    assert len(lines) == 9


def test_sample_rff_odd_feature_count_exits_two(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "sample", "--method", "rff", "--n", "8", "--features", "7",
        "--output", str(tmp_path / "s.csv"),
    )
    assert rc == 2
    assert "error: --features must be an even count >= 2, got 7" in err


def test_sample_rff_requires_features_flag(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "sample", "--method", "rff", "--n", "8", "--output", str(tmp_path / "s.csv"),
    )
    assert rc == 2
    assert "--features" in err


def test_sample_ciq_default_fidelity_golden(tmp_path, capsys):
    """Omitting the quadrature flags fills them from the calculators;
    the sidecar records the filled values."""
    out = tmp_path / "c.csv"
    rc, _, _ = run(
        capsys,
        "sample", "--method", "ciq", "--n", "16", "--seed", "3", "--output", str(out),
    )
    assert rc == 0
    sidecar = json.loads((tmp_path / "c.csv.json").read_text())
    assert sidecar["method"] == "ciq"
    assert sidecar["fidelity"]["eta"] == 0.5
    assert sidecar["fidelity"]["Q"] == 2
    assert sidecar["fidelity"]["J"] == 63
    assert sidecar["seed"] == 3
    assert sidecar["n"] == 16


@pytest.mark.parametrize("n", [16, 256])
def test_sample_pciq_default_fidelity_is_the_pciq_calculators(tmp_path, capsys, n):
    """Omitting --quadrature and --iterations for pciq records the Q and J
    that `bounds --method pciq` prints at the sample's default budget; J
    comes from the preconditioned bound, not ciq's. The solves converge
    well within either cap, so the CSV is the one ciq's J gives."""
    rc, out, _ = run(capsys, "bounds", "--method", "pciq", "--n", str(n), "--eps", "0.1")
    assert rc == 0
    certified = json.loads(out)
    rc, out, _ = run(capsys, "bounds", "--method", "ciq", "--n", str(n), "--eps", "0.1")
    ciq_J = json.loads(out)["J"]
    assert certified["J"] != ciq_J
    base = ["sample", "--method", "pciq", "--n", str(n), "--seed", "5"]
    assert run(capsys, *base, "--output", str(tmp_path / "p.csv"))[0] == 0
    fidelity = json.loads((tmp_path / "p.csv.json").read_text())["fidelity"]
    assert (fidelity["Q"], fidelity["J"]) == (certified["Q"], certified["J"])
    rc, _, _ = run(capsys, *base, "--iterations", str(ciq_J), "--output", str(tmp_path / "c.csv"))
    assert rc == 0
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def assert_one_error_line(err):
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps", "2"],
        ["--eta", "1.5"],
        ["--rank", "0"],
        ["--rank", "99"],
        ["--quadrature", "0"],
        ["--iterations", "0"],
        ["--n", "0"],
        ["--noise-variance", "1e-320"],
    ],
    ids=["eps", "eta", "rank-0", "rank-above-n", "quadrature", "iterations", "n", "Q-not-finite"],
)
def test_sample_invalid_fidelity_exits_two(tmp_path, capsys, flags):
    """Every fidelity value is checked before any work: a bad one is a
    usage error, and no sample is written. That includes a Q or J that is
    not a finite number, which used to raise OverflowError from ceil(inf)."""
    out = tmp_path / "s.csv"
    rc, _, err = run(
        capsys, "sample", "--method", "pciq", "--n", "16", "--output", str(out), *flags
    )
    assert rc == 2
    assert_one_error_line(err)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "rff", "--n", "16", "--eps", "0.1", "--delta", "2"],
        ["--method", "rff", "--n", "0", "--eps", "0.1"],
        ["--method", "ciq", "--n", "16", "--eps", "0.1", "--eta", "1.5"],
        ["--method", "rff", "--n", "16", "--eps", "2"],
        ["--method", "rff", "--n", "8", "--eps", "0.1", "--noise-variance", "1e-200"],
        ["--method", "rff", "--n", "8", "--eps", "1e-200"],
        ["--method", "ciq", "--n", "8", "--eps", "0.1", "--noise-variance", "1e-320"],
        ["--method", "pciq", "--n", "8", "--eps", "0.1", "--noise-variance", "1e-320"],
        ["--method", "exact", "--n", "8", "--eps", "0.1", "--noise-variance", "1e-320"],
        ["--method", "exact", "--n", "8", "--eps", "0.1", "--noise-variance", "5e-324"],
    ],
    ids=["delta", "n", "eta", "eps", "D-not-finite", "D-eps-underflows", "Q-not-finite",
         "pciq-Q-not-finite", "kappa-not-finite", "kappa-divisor-underflows"],
)
def test_bounds_invalid_flag_exits_two(capsys, flags):
    """An invalid budget or size is a usage error and prints no number.
    So is one that makes a printed value not a finite number: rff's
    sigma_xi2**2 underflowed to 0 (ZeroDivisionError), ciq's Q was
    ceil(inf) (OverflowError), and kappa_bound was printed as Infinity,
    which is not JSON, or raised ZeroDivisionError."""
    rc, out, err = run(capsys, "bounds", *flags)
    assert rc == 2 and out == ""
    assert_one_error_line(err)


def test_bounds_rff_huge_noise_variance_needs_two_features(capsys):
    """sigma_xi2**2 overflows above about 1.3e154; the sufficient D is then
    the floor of 2, not an error."""
    rc, out, _ = run(
        capsys, "bounds", "--method", "rff", "--n", "8", "--eps", "0.1",
        "--noise-variance", "1e200", "--json",
    )
    assert rc == 0
    assert json.loads(out)["D"] == 2


TABLE_DAMAGE = ["no comma", "non-numeric", "ragged", "header only", "nan", "missing"]


def damage_table(path, damage):
    """Spoil the second data row of a CSV table (or the whole file)."""
    if damage == "missing":
        path.unlink()
        return
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = {
        "no comma": " ".join(cells),
        "non-numeric": ",".join(cells[:-1] + ["abc"]),
        "ragged": ",".join(cells[:-1]),
        "nan": ",".join(cells[:-1] + ["nan"]),
    }.get(damage, lines[2])
    if damage == "header only":
        lines = lines[:1]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("damage", TABLE_DAMAGE)
@pytest.mark.parametrize("reader", ["sample --inputs", "verify --sample"])
def test_malformed_table_exits_two(tmp_path, capsys, recwarn, reader, damage):
    """Both CSV inputs go through one reader: a malformed file is a
    usage error with one `error:` line, never a traceback, a numpy
    warning or a sample drawn at non-finite inputs."""
    if reader == "sample --inputs":
        table = tmp_path / "in.csv"
        table.write_text("x0,x1\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        argv = ["sample", "--method", "exact", "--inputs", str(table)]
        argv += ["--output", str(tmp_path / "s.csv")]
    else:
        table = tmp_path / "s.csv"
        rc, _, _ = run(
            capsys, "sample", "--method", "exact", "--n", "8", "--output", str(table)
        )
        assert rc == 0
        argv = ["verify", "--sample", str(table)]
    damage_table(table, damage)
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert_one_error_line(err)
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


# cells of a fuzzed CSV: numbers of every size in their text forms, non-finite spellings and junk
CSV_NUMBERS = st.floats().map(repr) | st.integers(-10**30, 10**30).map(str)
CSV_JUNK = st.sampled_from(["nan", "inf", "-inf", "", " ", "abc", "0x10", "1e999", "#", '"1"'])


def csv_text(header):
    """Text of a CSV file: a header (often `header`) over rows that are
    often rows of numbers of the header's width, mixed with junk cells and
    blank lines; or any text at all."""
    width = header.count(",") + 1
    heads = st.just(header) | st.sampled_from([header + ",x", header.upper(), "", "x0;x1"])
    numbers = st.lists(CSV_NUMBERS, min_size=width, max_size=width)
    cells = st.lists(CSV_NUMBERS | CSV_JUNK | st.text(max_size=6), max_size=width + 1)
    rows = st.lists((numbers | cells).map(",".join), max_size=4)
    table = st.tuples(heads | st.text(max_size=8), rows)
    return table.map(lambda t: "\n".join([t[0], *t[1]]) + "\n") | st.text()


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(reader=st.sampled_from(["sample --inputs", "verify --sample"]), data=st.data())
def test_fuzzed_table_exits_zero_or_two(tmp_path, capsys, reader, data):
    """Whatever text the file holds, `sample --inputs` and `verify
    --sample` either succeed or exit 2 with one `error:` line: never
    exit 1, never a traceback."""
    if reader == "sample --inputs":
        table = tmp_path / "in.csv"
        table.write_text(data.draw(csv_text("x0,x1")), encoding="utf-8")
        argv = ["sample", "--method", "exact", "--inputs", str(table)]
        argv += ["--output", str(tmp_path / "s.csv")]
    else:
        table = tmp_path / "v.csv"
        if not (tmp_path / "v.csv.json").exists():
            argv = ["sample", "--method", "exact", "--n", "2", "--output", str(table)]
            assert run(capsys, *argv)[0] == 0
        table.write_text(data.draw(csv_text("index,y")), encoding="utf-8")
        argv = ["verify", "--sample", str(table)]
    rc, _, err = run(capsys, *argv)
    assert rc in (0, 2)
    if rc == 2:
        assert_one_error_line(err)


def write_inputs(path, points):
    lines = ["x0,x1"] + [",".join(format(v, ".17g") for v in row) for row in points]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("reader", ["sample --inputs", "verify --sample"])
def test_finite_values_that_overflow_exit_two(tmp_path, capsys, reader):
    """Finite cells can still overflow: a coordinate of 1e200 squares past
    the float range in the Gram assembly, and a sample of +-1.7e308 at two
    equal points whitens to -inf. Each is a usage error, not an exit 1
    with numpy warnings."""
    inputs = tmp_path / "in.csv"
    write_inputs(inputs, [[0.5, 0.0], [1e200 if reader == "sample --inputs" else 0.5, 0.0]])
    out = tmp_path / "s.csv"
    rc, _, err = run(
        capsys, "sample", "--method", "exact", "--inputs", str(inputs), "--output", str(out)
    )
    if reader == "verify --sample":
        assert rc == 0
        out.write_text("index,y\n0,1.7e308\n1,-1.7e308\n")
        rc, _, err = run(capsys, "verify", "--sample", str(out), "--inputs", str(inputs))
    assert rc == 2
    assert_one_error_line(err)


def test_verify_refuses_a_non_finite_factor(tmp_path, capsys, monkeypatch):
    """whiten does not scan the factor, so a non-finite one gives a
    non-finite z, which verify refuses as a usage error."""
    import gpforge.cli

    out = tmp_path / "s.csv"
    assert run(capsys, "sample", "--method", "exact", "--n", "8", "--output", str(out))[0] == 0
    factor = gpforge.cli.cholesky_factor

    def poisoned(K, overwrite=False):
        L = factor(K, overwrite)
        L[5, 1] = np.inf
        return L

    monkeypatch.setattr(gpforge.cli, "cholesky_factor", poisoned)
    rc, _, err = run(capsys, "verify", "--sample", str(out))
    assert rc == 2 and "non-finite" in err
    assert_one_error_line(err)


def test_sample_from_inputs_round_trips_through_verify(tmp_path, capsys):
    """A sample drawn at loaded inputs verifies against the same file;
    an --n that contradicts the file is refused."""
    inputs = tmp_path / "in.csv"
    write_inputs(inputs, np.random.default_rng(8).uniform(-1.0, 1.0, size=(40, 2)))
    out = tmp_path / "s.csv"
    rc, _, _ = run(
        capsys, "sample", "--method", "exact", "--inputs", str(inputs), "--seed", "6",
        "--output", str(out),
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 41
    rc, stdout, _ = run(capsys, "verify", "--sample", str(out), "--inputs", str(inputs))
    assert rc == 0
    assert json.loads(stdout)["reject"] is False
    rc, _, err = run(
        capsys, "sample", "--method", "exact", "--inputs", str(inputs), "--n", "39",
        "--output", str(tmp_path / "t.csv"),
    )
    assert rc == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("method", ["exact", "ciq", "pciq"])
def test_inputs_far_from_the_origin_sample_and_verify(tmp_path, capsys, method):
    """Forty points 1e8 + 0.3 i on a line: the kernel matrix is well
    conditioned, so the sample is drawn and verifies at alpha = 0.05."""
    inputs = tmp_path / "far.csv"
    write_inputs(inputs, np.repeat(1e8 + 0.3 * np.arange(40.0)[:, None], 2, axis=1))
    out = tmp_path / "s.csv"
    rc, _, err = run(
        capsys, "sample", "--method", method, "--inputs", str(inputs), "--output", str(out)
    )
    assert rc == 0, err
    rc, stdout, err = run(
        capsys, "verify", "--sample", str(out), "--inputs", str(inputs), "--alpha", "0.05"
    )
    assert rc == 0, err
    assert json.loads(stdout)["reject"] is False


@pytest.mark.parametrize(
    "method, lengthscale",
    [
        pytest.param(method, lengthscale, id=method if lengthscale == "1e300" else None)
        for lengthscale in ["1e300", "1e-160", "1e-300"]
        for method in ["exact", "ciq", "pciq"]
    ],
)
def test_a_lengthscale_whose_square_overflows_samples_and_verifies(
    tmp_path, capsys, method, lengthscale
):
    """--lengthscale 1e300 squares past the float range, and 1e-160 and
    1e-300 below its normal range; the kernel is then the constant
    variance or white noise, and the sample is drawn and verifies with
    no numpy warning."""
    out = tmp_path / "s.csv"
    argv = ["sample", "--method", method, "--n", "10", "--lengthscale", lengthscale]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run(capsys, *argv, "--output", str(out))
        assert rc == 0, err
        rc, stdout, err = run(capsys, "verify", "--sample", str(out))
    assert rc == 0, err
    assert json.loads(stdout)["reject"] is False


def test_a_solve_that_meets_a_non_finite_value_exits_one(tmp_path, capsys):
    """At variance 1e300 msMINRES meets a NaN at its first iteration: the
    solve stops there, and the sample is refused with one error line,
    no traceback and no numpy warning, although J is 10^5."""
    argv = ["sample", "--method", "ciq", "--n", "10", "--variance", "1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run(capsys, *argv, "--iterations", "100000", "--output", str(tmp_path / "o"))
    assert rc == 1
    assert_one_error_line(err)
    assert "non-finite" in err


def test_running_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    """A MemoryError, as numpy raises for a Gram matrix past the machine's
    memory, is one error line at exit 1; no allocation is attempted."""
    import gpforge.kernel

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(gpforge.kernel, "cdist", refuse)
    argv = ["sample", "--method", "exact", "--n", "8", "--output", str(tmp_path / "s.csv")]
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert_one_error_line(err)
    assert "Unable to allocate" in err


HUGE = str(10**400)  # an int no float holds


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bounds", "--method", "ciq", "--n", "100", "--eps", "0.1", "--dim", HUGE], 2),
        (["sample", "--method", "rff", "--n", "10", "--features", HUGE, "--output", "{out}"], 1),
        (["experiment", "--method", "exact", "--n-list", "8", "--repeats", HUGE,
          "--output", "{out}"], 1),
        (["experiment", "--method", "rff", "--fidelity-grid", "16", "--n-list", HUGE,
          "--repeats", "2", "--output", "{out}"], 1),
    ],
    ids=["bounds-dim", "sample-features", "experiment-repeats", "experiment-n"],
)
def test_an_integer_flag_too_large_for_a_float_is_one_error_line(tmp_path, capsys, argv, code):
    """An integer flag that overflows a float where it meets one (the
    decay regime's root, the rff feature scale, the chunk size, the
    growth-law rescaler) is one error line, never a traceback: exit 2 for
    `bounds`, whose refusals are usage errors, and exit 1 for the rest."""
    rc, _, err = run(capsys, *[a.format(out=tmp_path / "o.csv") for a in argv])
    assert rc == code
    assert_one_error_line(err)
    assert "too large" in err


def test_sample_pciq_sidecar_records_rank_reached(tmp_path, capsys):
    """Nine identical inputs give a rank-one kernel, so the Nystrom
    factor stops at rank 1 although floor(sqrt(9)) = 3 was requested;
    at variance 1e-20 each diagonal entry of K_eta, variance + eta *
    noise, rounds to eta * noise, so it stops at rank 0. The sidecar shows the rank that ran, and the
    sample verifies. Other sidecars carry a null rank."""
    inputs = tmp_path / "same.csv"
    write_inputs(inputs, np.full((9, 2), 0.25))
    out = tmp_path / "p.csv"
    rc, _, _ = run(
        capsys, "sample", "--method", "pciq", "--inputs", str(inputs), "--output", str(out)
    )
    assert rc == 0
    assert json.loads((tmp_path / "p.csv.json").read_text())["fidelity"]["rank"] == 1
    argv = ["sample", "--method", "pciq", "--n", "10", "--variance", "1e-20"]
    rc, _, err = run(capsys, *argv, "--output", str(out))
    assert rc == 0, err
    assert json.loads((tmp_path / "p.csv.json").read_text())["fidelity"]["rank"] == 0
    rc, stdout, err = run(capsys, "verify", "--sample", str(out))
    assert rc == 0, err
    assert json.loads(stdout)["reject"] is False
    rc, _, _ = run(capsys, "sample", "--method", "ciq", "--n", "9", "--output", str(out))
    assert rc == 0
    assert json.loads((tmp_path / "p.csv.json").read_text())["fidelity"]["rank"] is None


def test_sample_unwritable_output_exits_one(capsys):
    rc, _, err = run(
        capsys,
        "sample", "--method", "exact", "--n", "4",
        "--output", "/nonexistent_dir_for_test/out.csv",
    )
    assert rc == 1
    assert "error:" in err


def test_sample_seed_env_override(tmp_path, capsys, monkeypatch):
    """GPFORGE_SEED takes precedence over the --seed flag."""
    plain = tmp_path / "plain.csv"
    rc, _, _ = run(
        capsys, "sample", "--method", "exact", "--n", "8", "--seed", "5",
        "--output", str(plain),
    )
    assert rc == 0
    overridden = tmp_path / "env.csv"
    monkeypatch.setenv("GPFORGE_SEED", "5")
    rc, _, _ = run(
        capsys, "sample", "--method", "exact", "--n", "8", "--seed", "0",
        "--output", str(overridden),
    )
    assert rc == 0
    assert plain.read_bytes() == overridden.read_bytes()


def test_sample_bad_seed_env_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GPFORGE_SEED", "not-a-number")
    rc, _, err = run(
        capsys,
        "sample", "--method", "exact", "--n", "4", "--output", str(tmp_path / "s.csv"),
    )
    assert rc == 2
    assert "GPFORGE_SEED" in err


def test_verify_round_trip_accepts_faithful_sample(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc, _, _ = run(
        capsys,
        "sample", "--method", "exact", "--n", "32", "--seed", "6", "--output", str(out),
    )
    assert rc == 0
    rc, stdout, _ = run(capsys, "verify", "--sample", str(out))
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["reject"] is False
    assert doc["critical_value"] == 0.461
    assert 0.0 < doc["statistic"] < 0.461


def test_verify_bad_alpha_exits_two_before_reading_files(tmp_path, capsys):
    """alpha must have a tabulated critical value; a bad one is a usage
    error, found before the sample file is read."""
    out = tmp_path / "v.csv"
    assert run(capsys, "sample", "--method", "exact", "--n", "8", "--output", str(out))[0] == 0
    for sample in (out, tmp_path / "missing.csv"):
        rc, stdout, err = run(capsys, "verify", "--sample", str(sample), "--alpha", "0.07")
        assert rc == 2 and stdout == ""
        assert_one_error_line(err)
        assert "alpha" in err


def test_verify_missing_sidecar_exits_two(tmp_path, capsys):
    sample = tmp_path / "lonely.csv"
    sample.write_text("index,y\n0,1.0\n")
    rc, _, err = run(capsys, "verify", "--sample", str(sample))
    assert rc == 2
    assert "sidecar" in err


@pytest.mark.parametrize(
    "damage",
    [
        "no params",
        "no params field",
        "no seed",
        "not json",
        "seed not an integer: string",
        "seed not an integer: float",
        "seed not an integer: bool",
    ],
)
def test_verify_malformed_sidecar_exits_two(tmp_path, capsys, damage):
    """A damaged sidecar is a usage error with a one-line message. A
    seed that is not a JSON integer is refused rather than coerced, so
    verify never tests against inputs the sidecar did not name."""
    out = tmp_path / "m.csv"
    assert run(capsys, "sample", "--method", "exact", "--n", "8", "--output", str(out))[0] == 0
    sidecar_path = tmp_path / "m.csv.json"
    sidecar = json.loads(sidecar_path.read_text())
    if damage == "no params":
        del sidecar["params"]
    elif damage == "no params field":
        del sidecar["params"]["lengthscale"]
    elif damage == "no seed":
        del sidecar["seed"]
    elif damage.startswith("seed not an integer"):
        kind = damage.split(": ")[1]
        sidecar["seed"] = {"string": "abc", "float": 1.7, "bool": True}[kind]
    text = "{not json" if damage == "not json" else json.dumps(sidecar)
    sidecar_path.write_text(text)
    rc, _, err = run(capsys, "verify", "--sample", str(out))
    assert rc == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_sample_ciq_sidecar_records_solver(tmp_path, capsys):
    """A truncated Krylov solve is flagged in the sidecar and by one
    warning line on stderr; the calculator-default iteration cap
    converges, with no warning. Exact and rff sidecars carry no solver
    block."""
    sidecars, errs = {}, {}
    for name, extra in [
        ("short", ["--method", "ciq", "--iterations", "1"]),
        ("default", ["--method", "ciq"]),
        ("exact", ["--method", "exact"]),
        ("rff", ["--method", "rff", "--features", "16"]),
    ]:
        out = tmp_path / f"{name}.csv"
        rc, _, errs[name] = run(capsys, "sample", "--n", "200", "--output", str(out), *extra)
        assert rc == 0
        sidecars[name] = json.loads((tmp_path / f"{name}.csv.json").read_text())
    assert errs["short"].startswith("warning:") and len(errs["short"].splitlines()) == 1
    assert errs["default"] == errs["exact"] == errs["rff"] == ""
    short = sidecars["short"]["solver"]
    assert short["iterations"] == 1
    assert short["converged"] is False and short["max_residual"] > 0.5
    default = sidecars["default"]["solver"]
    assert default["converged"] is True and default["breakdown"] is False
    assert default["iterations"] < sidecars["default"]["fidelity"]["J"]
    assert default["max_residual"] <= 1e-10
    assert "solver" not in sidecars["exact"] and "solver" not in sidecars["rff"]


def test_experiment_minimal_completes_quickly(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    start = time.monotonic()
    rc, _, _ = run(
        capsys,
        "experiment", "--method", "exact", "--n-list", "64", "--repeats", "50",
        "--base-seed", "1", "--output", str(out), "--threads", "1",
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 10.0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,fidelity,rate")
    assert len(lines) == 2
    assert (tmp_path / "exp.csv.json").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_experiment_refuses_fewer_than_one_thread(tmp_path, capsys, threads):
    """A worker count below 1 is a usage error, not a silent run in one
    process: exit 2, one error line, and no report written."""
    out = tmp_path / "t.csv"
    rc, _, err = run(
        capsys,
        "experiment", "--method", "exact", "--n-list", "8", "--repeats", "2",
        "--output", str(out), "--threads", threads,
    )
    assert rc == 2
    assert err.startswith("error:") and "--threads" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_experiment_defaults_its_workers_to_the_usable_cpus(tmp_path, capsys, monkeypatch):
    """Without --threads, the worker cap is the count of CPUs this process
    may run on, not the machine's CPU count."""
    caps = []

    def recording_experiment(config, threads):
        caps.append(threads)
        return real_experiment(config, threads)

    real_experiment = cli.rejection_rate_experiment
    monkeypatch.setattr(cli, "rejection_rate_experiment", recording_experiment)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    out = tmp_path / "a.csv"
    rc, _, _ = run(
        capsys, "experiment", "--method", "exact", "--n-list", "8", "--repeats", "2",
        "--output", str(out),
    )
    assert rc == 0 and caps == [1]


def test_experiment_refuses_a_grid_for_the_exact_method(tmp_path, capsys):
    """An exact sweep has no fidelity to vary, so a --fidelity-grid is a
    usage error, as a `sample` flag that its method does not use is."""
    out = tmp_path / "e.csv"
    rc, _, err = run(
        capsys,
        "experiment", "--method", "exact", "--n-list", "8", "--fidelity-grid", "4,8",
        "--repeats", "2", "--output", str(out), "--threads", "1",
    )
    assert rc == 2 and "fidelity_grid" in err
    assert_one_error_line(err)
    assert list(tmp_path.iterdir()) == []


def test_experiment_row_count_matches_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc, _, _ = run(
        capsys,
        "experiment", "--method", "rff", "--n-list", "8,16",
        "--fidelity-grid", "4,8", "--repeats", "5", "--base-seed", "2",
        "--output", str(out), "--threads", "1",
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


def test_experiment_reports_rounded_grid_value(tmp_path, capsys):
    """rff runs an even feature count: the grid value 3 stays 3 in the
    CSV, and the JSON cell shows that D=4 ran."""
    out = tmp_path / "odd.csv"
    rc, _, _ = run(
        capsys,
        "experiment", "--method", "rff", "--n-list", "16", "--fidelity-grid", "3",
        "--repeats", "3", "--base-seed", "2", "--output", str(out), "--threads", "1",
    )
    assert rc == 0
    assert out.read_text().splitlines()[1].split(",")[1] == "3"
    cell = json.loads((tmp_path / "odd.csv.json").read_text())["cells"][0]
    assert cell["fidelity"] == 3.0 and cell["ran"]["D"] == 4


def test_experiment_rerun_reproduces_bytes(tmp_path, capsys):
    args = (
        "experiment", "--method", "rff", "--n-list", "16",
        "--fidelity-grid", "8", "--repeats", "20", "--base-seed", "9",
        "--threads", "2",
    )
    out_a = tmp_path / "ra.csv"
    out_b = tmp_path / "rb.csv"
    assert run(capsys, *args, "--output", str(out_a))[0] == 0
    assert run(capsys, *args, "--output", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_experiment_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "method": "rff",
                "n_list": [8],
                "fidelity_grid": [4],
                "repeats": 5,
                "base_seed": 3,
                "params": {"lengthscale": 0.5},
            }
        )
    )
    out = tmp_path / "from_cfg.csv"
    rc, _, _ = run(
        capsys,
        "experiment", "--config", str(config), "--repeats", "6",
        "--output", str(out), "--threads", "1",
    )
    assert rc == 0
    assert out.read_text().splitlines()[1].split(",")[5] == "6"


def test_experiment_unknown_config_field_exits_two(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps({"schema_version": 1, "method": "exact", "n_list": [8], "bogus": 1})
    )
    rc, _, err = run(
        capsys,
        "experiment", "--config", str(config), "--output", str(tmp_path / "o.csv"),
    )
    assert rc == 2
    assert "bogus" in err


@pytest.mark.parametrize(
    "params",
    [{"bogus": 1.0}, {"variance": "high"}, [1.0, 1.0, 0.25, 2]],
    ids=["unknown-field", "wrong-type", "not-an-object"],
)
def test_experiment_bad_config_params_exit_two(tmp_path, capsys, params):
    """A config's partial params get the flag defaults underneath; an
    unknown field, a value of the wrong type or a non-object is a usage
    error, never a traceback."""
    config = tmp_path / "bad.json"
    config.write_text(
        json.dumps({"schema_version": 1, "method": "exact", "n_list": [8], "params": params})
    )
    rc, _, err = run(
        capsys,
        "experiment", "--config", str(config), "--output", str(tmp_path / "o.csv"),
    )
    assert rc == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_experiment_non_string_method_exits_two(tmp_path, capsys):
    """A config method that is not a string (here an unhashable list) is
    a usage error with a one-line message, never a traceback."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"schema_version": 1, "method": ["rff"], "n_list": [8]}))
    rc, _, err = run(
        capsys,
        "experiment", "--config", str(config), "--output", str(tmp_path / "o.csv"),
    )
    assert rc == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_experiment_wrong_schema_version_exits_two(tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({"schema_version": 2, "method": "exact", "n_list": [8]}))
    rc, _, err = run(
        capsys,
        "experiment", "--config", str(config), "--output", str(tmp_path / "o.csv"),
    )
    assert rc == 2
    assert "schema_version" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("fidelity_as_fraction", "false"),
        ("n_list", "32"),
        ("n_list", [32.9]),
        ("repeats", 4.7),
        ("base_seed", 2.5),
        ("repeats", True),
        ("params", {"dim": 2.0}),
        ("sidecar dim", 2.0),
        ("eta", 10**400),
    ],
    ids=[
        "fraction-string", "n_list-string", "n_list-float", "repeats-float",
        "base_seed-float", "repeats-bool", "params-dim-float", "sidecar-dim-float",
        "eta-beyond-float",
    ],
)
def test_value_of_another_json_type_exits_two(tmp_path, capsys, key, value):
    """A config or sidecar value without its field's JSON type is refused,
    never coerced into a run it does not describe: "false" is not false,
    "32" is not [3, 2], 32.9 is not 32, true is not 1 repeat and a
    400-digit integer is no float. A dim of 2.0 neither fails every
    experiment cell nor crashes verify."""
    if key == "sidecar dim":
        out = tmp_path / "s.csv"
        assert run(capsys, "sample", "--method", "exact", "--n", "8", "--output", str(out))[0] == 0
        sidecar = json.loads((tmp_path / "s.csv.json").read_text())
        sidecar["params"]["dim"] = value
        (tmp_path / "s.csv.json").write_text(json.dumps(sidecar))
        argv = ["verify", "--sample", str(out)]
    else:
        config = {"schema_version": 1, "method": "rff", "n_list": [16], "fidelity_grid": [8]}
        config.update({"repeats": 3, key: value})
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["experiment", "--config", str(tmp_path / "cfg.json"), "--threads", "1"]
        argv += ["--output", str(tmp_path / "o.csv")]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "case",
    [
        "sample without n or inputs", "config missing", "config not JSON", "config an array",
        "experiment without output", "verify inputs of another size",
    ],
)
def test_a_request_missing_what_it_needs_exits_two(tmp_path, capsys, case):
    """A sample with neither --n nor --inputs, a config file that is
    missing, not JSON or not an object, an experiment with nowhere to
    write, and verify --inputs with another row count than the sample's
    are each one error line at exit 2, with nothing on stdout."""
    config, inputs, out = tmp_path / "cfg.json", tmp_path / "in.csv", tmp_path / "o.csv"
    experiment = ["experiment", "--config", str(config), "--output", str(out)]
    if case == "sample without n or inputs":
        argv = ["sample", "--method", "exact", "--output", str(out)]
    elif case == "config missing":
        argv = experiment
    elif case == "config not JSON":
        config.write_text('{"schema_version": 1,')
        argv = experiment
    elif case == "config an array":
        config.write_text('[{"schema_version": 1, "method": "exact", "n_list": [8]}]')
        argv = experiment
    elif case == "experiment without output":
        argv = ["experiment", "--method", "exact", "--n-list", "8", "--repeats", "2"]
    else:
        write_inputs(inputs, np.random.default_rng(3).uniform(-1.0, 1.0, size=(12, 2)))
        assert run(capsys, "sample", "--method", "exact", "--n", "8", "--output", str(out))[0] == 0
        argv = ["verify", "--sample", str(out), "--inputs", str(inputs)]
    rc, stdout, err = run(capsys, *argv)
    assert rc == 2 and stdout == ""
    assert_one_error_line(err)


def test_experiment_failed_cell_warns_but_succeeds(tmp_path, capsys):
    out = tmp_path / "warn.csv"
    rc, _, err = run(
        capsys,
        "experiment", "--method", "rff", "--n-list", "8",
        "--fidelity-grid", "nan,8", "--repeats", "5", "--base-seed", "1",
        "--output", str(out), "--threads", "1",
    )
    assert rc == 0
    assert "warning:" in err
    assert len(out.read_text().splitlines()) == 3


def test_precond_sweep_grid_shape_and_determinism(tmp_path, capsys):
    args = (
        "precond-sweep", "--n-list", "16,24,32",
        "--lengthscales", "0.05,0.1,0.2,0.3,0.5,0.8,1,2,5,10", "--seed", "4",
    )
    out_a = tmp_path / "sa.csv"
    out_b = tmp_path / "sb.csv"
    assert run(capsys, *args, "--output", str(out_a))[0] == 0
    assert run(capsys, *args, "--output", str(out_b))[0] == 0
    lines = out_a.read_text().splitlines()
    assert lines[0] == "n,lengthscale,metric"
    assert len(lines) == 31
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-list", "8,abc", "--fidelity-grid", "4"],
        ["--n-list", "8", "--fidelity-grid", "4,x"],
    ],
    ids=["n-list", "fidelity-grid"],
)
def test_experiment_malformed_list_exits_two(tmp_path, capsys, flags):
    """A list flag that does not parse is a usage error, and nothing is written."""
    out = tmp_path / "e.csv"
    rc, _, err = run(capsys, "experiment", "--method", "rff", "--output", str(out), *flags)
    assert rc == 2
    assert_one_error_line(err)
    assert not out.exists()


@pytest.mark.parametrize(
    "n_list, lengthscales",
    [
        ("0", "1"),
        ("8,-3", "1"),
        ("8,abc", "1"),
        ("8.5", "1"),
        ("8", "0"),
        ("8", "1,-0.5"),
        ("8", "nan"),
        ("8", "inf"),
        ("8", "x"),
    ],
    ids=["n-zero", "n-negative", "n-malformed", "n-fractional", "ls-zero",
         "ls-negative", "ls-nan", "ls-inf", "ls-malformed"],
)
def test_precond_sweep_invalid_list_exits_two(tmp_path, capsys, n_list, lengthscales):
    """Sizes must be integers >= 1 and lengthscales finite and > 0,
    checked before any work."""
    out = tmp_path / "p.csv"
    rc, _, err = run(
        capsys, "precond-sweep", "--n-list", n_list, "--lengthscales", lengthscales,
        "--output", str(out),
    )
    assert rc == 2
    assert_one_error_line(err)
    assert not out.exists()


@pytest.mark.parametrize(
    "method, flags",
    [
        ("ciq", ["--features", "4"]),
        ("pciq", ["--features", "4"]),
        ("exact", ["--features", "4"]),
        ("ciq", ["--rank", "3"]),
        ("rff", ["--features", "4", "--rank", "3"]),
        ("exact", ["--rank", "3"]),
        ("rff", ["--features", "4", "--quadrature", "3"]),
        ("exact", ["--quadrature", "3"]),
        ("rff", ["--features", "4", "--iterations", "3"]),
        ("exact", ["--iterations", "3"]),
        ("rff", ["--features", "4", "--eta", "0.3"]),
        ("exact", ["--eta", "0.3"]),
        ("rff", ["--features", "4", "--eps", "0.5"]),
        ("exact", ["--eps", "0.5"]),
        ("exact", ["--eta", "0.5", "--eps", "0.1"]),
    ],
)
def test_sample_flag_for_another_method_exits_two(tmp_path, capsys, method, flags):
    """--features is for rff, --rank for pciq, --quadrature, --iterations,
    --eta and --eps for ciq and pciq; any other use is refused, not
    dropped, even at the value the method would default to."""
    out = tmp_path / "s.csv"
    rc, _, err = run(
        capsys, "sample", "--method", method, "--n", "8", "--output", str(out), *flags
    )
    assert rc == 2
    assert_one_error_line(err)
    assert "does not apply" in err
    assert not out.exists()


def sha256_of(points):
    return hashlib.sha256(np.ascontiguousarray(points, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("method", ["exact", "rff", "ciq", "pciq"])
@pytest.mark.parametrize("n", [1, 48, 300])
def test_sample_then_verify_round_trips(tmp_path, capsys, method, n):
    """Every method's sample verifies with exit 0 at its defaults. For
    exact, verify whitens back to the seed's latent draw u, so the
    statistic it prints is the statistic of u."""
    out = tmp_path / "s.csv"
    extra = ["--features", "64"] if method == "rff" else []
    rc, _, _ = run(
        capsys, "sample", "--method", method, "--n", str(n), "--seed", "11",
        "--output", str(out), *extra,
    )
    assert rc == 0
    sidecar = json.loads((tmp_path / "s.csv.json").read_text())
    params = KernelParams.from_dict(sidecar["params"])
    assert sidecar["inputs_sha256"] == sha256_of(sample_inputs(n, params, 11).points)
    rc, stdout, _ = run(capsys, "verify", "--sample", str(out))
    assert rc == 0
    statistic = json.loads(stdout)["statistic"]
    if method == "exact":
        expected = cvm_test(stream(11, LATENT).standard_normal(n)).statistic
        assert statistic == pytest.approx(expected, rel=1e-10, abs=0)


@pytest.mark.parametrize("case", ["sample flag", "config params", "bounds decay constant"])
def test_nan_parameter_exits_two(tmp_path, capsys, case):
    """NaN fails every comparison, so a range check written as `x <= 0`
    let it through: `sample --lengthscale nan` exited 1 on a non-finite
    draw, a config with lengthscale NaN (Python's json reads the literal)
    ran every cell failed with exit 0, and `bounds --c1 nan` printed a
    regime."""
    if case == "sample flag":
        argv = ["sample", "--method", "exact", "--n", "8", "--lengthscale", "nan"]
        argv += ["--output", str(tmp_path / "s.csv")]
    elif case == "config params":
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"schema_version": 1, "method": "exact", "n_list": [8], "repeats": 2, '
            '"params": {"lengthscale": NaN}}'
        )
        argv = ["experiment", "--config", str(config), "--output", str(tmp_path / "o.csv")]
    else:
        argv = ["bounds", "--method", "ciq", "--n", "256", "--eps", "0.1", "--c1", "nan"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert_one_error_line(err)


@pytest.mark.parametrize("case", ["seed inputs", "other file", "round trip", "old sidecar"])
def test_verify_refuses_inputs_the_sample_was_not_drawn_at(tmp_path, capsys, case):
    """The sidecar records a SHA-256 of the points a sample was drawn at.
    verify refuses other points with exit 2: the seed's points in place
    of a loaded file, or another file. The file itself verifies, and a
    sidecar without the field is taken as it is."""
    inputs, other = tmp_path / "in.csv", tmp_path / "other.csv"
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 2))
    write_inputs(inputs, points)
    write_inputs(other, points[::-1])
    out = tmp_path / "s.csv"
    rc, _, _ = run(
        capsys, "sample", "--method", "exact", "--inputs", str(inputs), "--seed", "4",
        "--output", str(out),
    )
    assert rc == 0
    sidecar_path = tmp_path / "s.csv.json"
    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["inputs_sha256"] == sha256_of(points)
    if case == "old sidecar":
        del sidecar["inputs_sha256"]
        sidecar_path.write_text(json.dumps(sidecar))
    verify_inputs = {
        "seed inputs": [], "other file": ["--inputs", str(other)],
    }.get(case, ["--inputs", str(inputs)])
    rc, stdout, err = run(capsys, "verify", "--sample", str(out), *verify_inputs)
    if case in ("seed inputs", "other file"):
        assert rc == 2 and stdout == ""
        assert_one_error_line(err)
        assert "inputs_sha256" in err
    else:
        assert rc == 0
        assert json.loads(stdout)["reject"] is False


@pytest.mark.parametrize("order", ["reversed", "shifted"])
def test_verify_refuses_an_index_that_is_not_0_to_n_minus_1(tmp_path, capsys, order):
    """Row i of a sample is the draw at input i. verify used to drop the
    index column, so the rows of an exact n=8 sample in reverse order, or
    indexed 100..107, verified with exit 0 against the wrong inputs."""
    out = tmp_path / "s.csv"
    assert run(capsys, "sample", "--method", "exact", "--n", "8", "--output", str(out))[0] == 0
    header, *rows = out.read_text().splitlines()
    if order == "reversed":
        rows = rows[::-1]
    else:
        rows = [f"{100 + i},{row.split(',')[1]}" for i, row in enumerate(rows)]
    out.write_text("\n".join([header, *rows]) + "\n")
    rc, stdout, err = run(capsys, "verify", "--sample", str(out))
    assert rc == 2 and stdout == ""
    assert_one_error_line(err)
    assert "index" in err


@pytest.mark.parametrize(
    "case", ["bounds variance", "sample variance", "sample noise variance", "config params"]
)
def test_infinite_kernel_value_exits_two(tmp_path, capsys, case):
    """Kernel values must be finite. `bounds --variance inf` printed
    `"kappa_bound": Infinity`, which is not JSON; `sample` exited 1 on
    an infinite variance or noise variance; and a config's `Infinity`,
    which Python's json reads, got through."""
    sample = ["sample", "--method", "exact", "--n", "8", "--output", str(tmp_path / "s.csv")]
    if case == "bounds variance":
        argv = ["bounds", "--method", "rff", "--n", "8", "--eps", "0.1", "--variance", "inf"]
    elif case == "sample variance":
        argv = sample + ["--variance", "inf"]
    elif case == "sample noise variance":
        argv = sample + ["--noise-variance", "inf"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"schema_version": 1, "method": "exact", "n_list": [8], "repeats": 2, '
            '"params": {"variance": Infinity}}'
        )
        argv = ["experiment", "--config", str(config), "--output", str(tmp_path / "o.csv")]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert_one_error_line(err)
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "o.csv").exists()
