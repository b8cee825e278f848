"""Every table and frame writer against the per-row writers it replaced.

The reference writers below format one row at a time, as the package did
before its CSV tables were written in blocks; each output must match
them byte for byte.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cohere import cli
from cohere.position import (
    GridField,
    GridSpec,
    read_field_binary,
    write_field_binary,
    write_field_csv,
)
from cohere.state import (
    _CSV_BLOCK_ROWS,
    build_state,
    solve_scale_ln,
    write_descriptor,
    write_trace_csv,
)
from cohere.su2 import AngularParams
from cohere.weights import WeightSpec

SRC = Path(__file__).resolve().parents[1] / "src"

FMT = "%.17g"
SPECIALS = (-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.0, 1e-300, -1e300)


def reference_trace_csv(path, times, values):
    values = np.asarray(values)
    with open(path, "w") as fh:
        fh.write("t,re_A,im_A,abs_A,abs_sq_A\n")
        for t, v in zip(times, values):
            mag = abs(v)
            fh.write(",".join(FMT % x for x in (t, v.real, v.imag, mag, mag * mag)) + "\n")


def reference_field_csv(path, field):
    axis = field.spec.axis()
    with open(path, "w") as fh:
        fh.write("x,y,abs_psi,re_psi,im_psi\n")
        for iy, y in enumerate(axis):
            for ix, x in enumerate(axis):
                v = field.values[iy, ix]
                fh.write(",".join(FMT % q for q in (x, y, abs(v), v.real, v.imag)) + "\n")


def reference_field_binary(field) -> bytes:
    header = (np.array([field.spec.width], dtype="<f8").tobytes()
              + np.array([field.spec.samples], dtype="<i8").tobytes()
              + np.array([field.t], dtype="<f8").tobytes())
    interleaved = np.empty(field.values.size * 2, dtype="<f8")
    interleaved[0::2] = field.values.real.ravel()
    interleaved[1::2] = field.values.imag.ravel()
    return header + interleaved.tobytes()


def reference_levels(rows) -> str:
    return "n,p_n\n" + "".join(f"{n},{FMT % p}\n" for n, p in rows)


def sample_values(rng, size, scale=1.0):
    """Complex values over 600 decades, with the special values planted."""
    mags = 10.0 ** rng.uniform(-300, 300, size) * scale
    values = mags * np.exp(2j * np.pi * rng.random(size))
    for i, (real, imag) in enumerate(zip(SPECIALS, SPECIALS[::-1])):
        if i < size:
            values[i] = complex(real, imag)
    return values


def random_field(rng, samples):
    values = sample_values(rng, samples * samples).reshape(samples, samples)
    return GridField(spec=GridSpec(width=1300.0, samples=samples), t=1.25e9, values=values)


@pytest.fixture(scope="module")
def state():
    return build_state(WeightSpec(0.25), 0.0, AngularParams(0.3, -0.2j),
                       ln_s=solve_scale_ln(0.25, 6.0))


class TestTraceCsv:
    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1])
    def test_matches_the_per_row_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        times = np.sort(rng.uniform(0.0, 1.5e9, rows))
        values = sample_values(rng, rows)
        with np.errstate(over="ignore"):  # |A|^2 overflows past |A| ~ 1e154 in both
            write_trace_csv(tmp_path / "new.csv", times, values)
            reference_trace_csv(tmp_path / "old.csv", times, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_python_sequences_and_real_values(self, tmp_path):
        times, values = [0, 0.5, 2], [1.0, -0.0, 5e-324]
        write_trace_csv(tmp_path / "new.csv", times, values)
        reference_trace_csv(tmp_path / "old.csv", times, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n_times, n_values", [(3, 2), (2, 3), (0, 1)])
    def test_length_mismatch_raises(self, tmp_path, n_times, n_values):
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=f"{n_times} times but {n_values} values"):
            write_trace_csv(path, np.zeros(n_times), np.ones(n_values, dtype=complex))
        assert not path.exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS and VmHWM")
    def test_working_set_is_bounded(self, tmp_path):
        # in a fresh process, so that its high-water mark is the writer's:
        # VmHWM after the write less VmRSS before it, a few MiB for the block
        # writer and ~80 MiB for one that joins the whole table
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from cohere.state import write_trace_csv\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) * 1024 for line in f if line.startswith(key + ':'))\n"
            "rng = np.random.default_rng(0)\n"
            "times = np.sort(rng.uniform(0.0, 2e9, 200_001))\n"
            "values = rng.random(times.size) * np.exp(1j * times)\n"
            "before = status('VmRSS')\n"
            "write_trace_csv(sys.argv[1], times, values)\n"
            "print(status('VmHWM') - before, times.nbytes + values.nbytes)\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "trace.csv")],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        grown, array_bytes = map(int, done.stdout.split())
        bound = array_bytes + 8 * 2**20
        assert grown <= bound, grown
        # so no string or list held the whole table: its text alone is larger
        assert (tmp_path / "trace.csv").stat().st_size > bound


class TestFieldFiles:
    @pytest.mark.parametrize("samples", [2, 3, 101])
    def test_csv_matches_the_per_row_writer(self, tmp_path, samples):
        field = random_field(np.random.default_rng(samples), samples)
        write_field_csv(tmp_path / "new.csv", field)
        reference_field_csv(tmp_path / "old.csv", field)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("samples", [2, 3, 101])
    def test_binary_matches_the_interleaved_layout(self, tmp_path, samples):
        field = random_field(np.random.default_rng(samples), samples)
        write_field_binary(tmp_path / "frame.bin", field)
        assert (tmp_path / "frame.bin").read_bytes() == reference_field_binary(field)

    def test_binary_round_trip_is_exact(self, tmp_path):
        field = random_field(np.random.default_rng(7), 5)
        write_field_binary(tmp_path / "frame.bin", field)
        back = read_field_binary(tmp_path / "frame.bin")
        assert (back.spec, back.t) == (field.spec, field.t)
        assert back.values.dtype == complex and back.values.flags.writeable
        # bit for bit, so -0.0 keeps its sign in both parts
        assert back.values.tobytes() == field.values.tobytes()

    @pytest.mark.parametrize("keep, expected", [
        (10, "expected a 24-byte header"),
        (24, "expected 424 for 5^2 samples"),
        (24 + 16 * 25 - 1, "expected 424 for 5^2 samples"),
        (24 + 16 * 24, "expected 424 for 5^2 samples"),
    ])
    def test_truncated_binary_names_the_sizes(self, tmp_path, keep, expected):
        path = tmp_path / "frame.bin"
        write_field_binary(path, random_field(np.random.default_rng(1), 5))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=re.escape(f"{path} holds {keep} bytes; {expected}")):
            read_field_binary(path)


class TestCliTables:
    def test_levels(self, tmp_path, state):
        write_descriptor(tmp_path / "state.desc", state)
        out = tmp_path / "levels.csv"
        argv = ["levels", "--descriptor", str(tmp_path / "state.desc"), "-o", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        coeffs = state.coeffs
        assert out.read_text() == reference_levels(zip(coeffs.levels, coeffs.probabilities))
