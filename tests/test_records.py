"""The column-wise trajectories.jsonl encoder: equal to the reference record
helpers line for line in any row blocks, holding one block of text at a
time as its lines are written, and a non-finite value ends the run with
exit 3, whether the chunk runs in a worker process or in-process."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from test_cli import chunk_sizes
from test_engine import TIMES, jump_setup, mixing_setup

from qtraj import (NumericError, cli, ensemble, evolve_density, evolve_jump, records,
                   run_trajectories, trajectory_chunks)
from qtraj.jumps import EventColumns
from qtraj.records import (
    density_trajectory_record,
    encode,
    jump_trajectory_record,
    trajectory_writer,
    write_jsonl,
    write_table,
)

# An observable name that JSON must escape, sorting after "R" and "H".
ESCAPED = 'x "quoted" \\ é\t'
META = {"seed": 41, "spec_hash": "0123456789abcdef"}


def write_columns(path, seed, cols):
    """Write trajectories.jsonl of cols, one chunk, as the CLI writes a chunk."""
    with trajectory_writer(path, META) as write:
        write((cols, encode(seed, cols)))


def run_case(engine, mode, sampled, n=30, nu=None):
    """Event columns of n trajectories (two chunks), and the reference
    records of the same trajectories built one by one; nu replaces the
    setup's event rate."""
    times = TIMES if sampled else None
    if engine == "jump":
        cfg, eta, obs = jump_setup(mode)
        cfg = cfg if nu is None else dataclasses.replace(cfg, nu=nu)
        obs = {**obs, ESCAPED: obs["R"]}
        cols = run_trajectories(cfg, eta, 1.0, n, obs, times, n_workers=2)
        refs = [jump_trajectory_record(evolve_jump(cfg, eta, 1.0, i, times, obs), i, cfg.seed)
                for i in range(n)]
    else:
        cfg, rho0, obs = mixing_setup()
        cfg = cfg if nu is None else dataclasses.replace(cfg, nu=nu)
        obs = {**obs, ESCAPED: obs["R"]}
        cols = run_trajectories(cfg, rho0, 1.0, n, obs, times, n_workers=2, equation=mode)
        refs = [density_trajectory_record(evolve_density(cfg, rho0, 1.0, mode, i, times, obs),
                                          i, cfg.seed)
                for i in range(n)]
    return cfg, cols, refs


@pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "unsampled"])
@pytest.mark.parametrize("mode", ["normalized", "linear"])
@pytest.mark.parametrize("engine", ["jump", "mixing"])
def test_encoder_equals_reference_helpers(tmp_path, engine, mode, sampled):
    cfg, cols, refs = run_case(engine, mode, sampled)
    assert cols.counts.sum() > 0
    write_columns(tmp_path / "columns.jsonl", cfg.seed, cols)
    write_jsonl(tmp_path / "reference.jsonl", META, refs)
    got = (tmp_path / "columns.jsonl").read_text().splitlines()
    want = (tmp_path / "reference.jsonl").read_text().splitlines()
    assert len(got) == 31 and got == want
    assert (tmp_path / "columns.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


@pytest.mark.parametrize("mode", ["normalized", "linear"])
@pytest.mark.parametrize("engine", ["jump", "mixing"])
def test_chunk_writer_equals_reference_helpers(tmp_path, monkeypatch, engine, mode):
    # Chunks of 7 rows, each written in blocks of about three rows.
    cfg, _, refs = run_case(engine, mode, True)
    write_jsonl(tmp_path / "reference.jsonl", META, refs)
    monkeypatch.setattr("qtraj.ensemble._CHUNK", 7)
    set_bounds(monkeypatch, 200)
    _, initial, obs = jump_setup(mode) if engine == "jump" else mixing_setup()
    chunks = trajectory_chunks(cfg, initial, 1.0, 30, {**obs, ESCAPED: obs["R"]}, TIMES,
                               equation=None if engine == "jump" else mode, keep="records")
    path = tmp_path / "out" / "columns.jsonl"
    with trajectory_writer(path, META) as write:
        assert [write(chunk).indices.size for chunk in chunks] == [7, 7, 7, 7, 2]
        assert not path.exists()
    assert path.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    assert [p.name for p in path.parent.iterdir()] == ["columns.jsonl"]


def test_in_process_chunks_render_their_lines_as_they_are_written(monkeypatch):
    # Blocks of about three rows: after the first line of a chunk drawn
    # in-process only its first block is rendered, and the rest as the
    # lines are consumed.
    set_bounds(monkeypatch, 200)
    rendered, lines_of = [], records._lines
    monkeypatch.setattr(records, "_lines", lambda *args: rendered.append(args[-2:]) or
                        lines_of(*args))
    cfg, eta, obs = jump_setup("linear")
    [(series, lines)] = trajectory_chunks(cfg, eta, 1.0, 12, obs, TIMES, keep="records")
    next(lines)
    assert len(rendered) == 1 and series.indices.size == 12
    assert len(list(lines)) == 11 and len(rendered) > 1


# Block bounds, in mean rows, that cut 30 rows every way: a row a block,
# where a row with events is beyond the bound, and two and seven rows a
# block.  The rates leave some rows without events.
BOUNDS = [0.0, 2.5, 7.0]
SPARSE_NU = {"jump": 2.0, "mixing": 1.0}


def set_bounds(monkeypatch, numbers):
    monkeypatch.setattr(records, "BLOCK_NUMBERS", numbers)


def rendered_numbers(line: str) -> int:
    """The numbers a trajectories.jsonl line renders, its seed aside, and
    the 17 its keys weigh in the block bound."""
    def count(x):
        if isinstance(x, (dict, list)):
            return sum(map(count, x.values() if isinstance(x, dict) else x))
        return int(isinstance(x, (int, float)))

    return count(json.loads(line)) - 1 + 17


@pytest.mark.parametrize("mode", ["normalized", "linear"])
@pytest.mark.parametrize("engine", ["jump", "mixing"])
def test_block_bounds_change_no_byte(tmp_path, monkeypatch, engine, mode):
    cfg, cols, refs = run_case(engine, mode, True, nu=SPARSE_NU[engine])
    write_jsonl(tmp_path / "reference.jsonl", META, refs)
    want = (tmp_path / "reference.jsonl").read_bytes()
    numbers = [rendered_numbers(line) for line in want.decode().splitlines()[1:]]
    empty_starts, own_blocks, shared_blocks = 0, 0, 0
    for rows in BOUNDS:
        bound = int(rows * np.mean(numbers))
        set_bounds(monkeypatch, bound)
        blocks = list(records._blocks(cols))
        # The blocks cover the rows in order, each within the bound or one
        # row, and each as long as the bound allows.
        assert [r for a, b in blocks for r in range(a, b)] == list(range(30))
        sizes = [(b - a, sum(numbers[a:b])) for a, b in blocks]
        assert all(size <= bound or r == 1 for r, size in sizes)
        assert all(b == 30 or sum(numbers[a:b + 1]) > bound for a, b in blocks)
        empty_starts += sum(cols.counts[a] == 0 for a, _ in blocks)
        own_blocks += sum(size > bound for _, size in sizes)
        shared_blocks += sum(r > 1 for r, _ in sizes)
        write_columns(tmp_path / "columns.jsonl", cfg.seed, cols)
        assert (tmp_path / "columns.jsonl").read_bytes() == want
    assert empty_starts > 0 and own_blocks > 0 and shared_blocks > 0


@pytest.mark.parametrize("column, key", [("times", "events"), ("weights", "norm2"),
                                         ("values", "observables")])
def test_non_finite_value_in_the_last_block_is_found_before_writing(tmp_path, monkeypatch,
                                                                     column, key):
    set_bounds(monkeypatch, 200)  # about three rows
    cfg, cols, _ = run_case("jump", "linear", True, n=8)
    row = int(np.flatnonzero(cols.counts)[-1])
    assert row >= list(records._blocks(cols))[-1][0] > 0
    poison(cols, column, row)
    path = tmp_path / "out" / "t.jsonl"
    with pytest.raises(NumericError, match=f"non-finite {key} value .* index={row} "):
        write_columns(path, cfg.seed, cols)
    assert not path.parent.exists()


def synthetic_jump_columns(n, events=2, samples=4):
    """Jump columns of n rows of random values, with events per row."""
    rng = np.random.default_rng(n)
    return EventColumns(indices=np.arange(n), weights=rng.random((n, samples)),
                        sample_times=np.linspace(0.1, 1.0, samples), names=("R",),
                        values=rng.standard_normal((1, n, samples)), counts=np.full(n, events),
                        times=np.sort(rng.random((n, events)), axis=1).ravel(),
                        outcomes=rng.integers(0, 8, n * events), grid=np.linspace(-2.0, 2.0, 8),
                        log_weight=rng.standard_normal(n), final=rng.random(n))


# A bound on the writer's traced peak beyond its columns, whatever the row
# and sample counts.  With blocks of BLOCK_NUMBERS (777 rows of 4 samples, 3
# of 2800) it peaks at 0.74 and 0.86 MB at the two row counts; all 2000 rows
# at once take 1.8 MB, and one block of all 64 rows of 2800 samples 10 MB.
WRITER_PEAK_BYTES = 1_000_000


@pytest.mark.parametrize("n, samples", [pytest.param(2000, 4, id="2000"),
                                        pytest.param(16000, 4, id="16000"),
                                        pytest.param(64, 2800, id="64x2800")])
def test_writer_memory_does_not_grow_with_rows(tmp_path, n, samples):
    cols = synthetic_jump_columns(n, samples=samples)
    cols.offsets  # the columns' cumulative event counts, cached on them
    tracemalloc.start()
    try:
        write_columns(tmp_path / "t.jsonl", 0, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WRITER_PEAK_BYTES
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == n + 1


def poison(cols, column, row):
    """Put a NaN into the first entry of the given row of a column."""
    a = getattr(cols, column)
    if column == "times":
        a[cols.offsets[row]] = np.nan
    elif column == "values":
        a[0, row, 2] = np.nan
    else:
        a[row] = np.nan


@pytest.mark.parametrize("engine, column, key", [
    ("jump", "times", "events"),
    ("jump", "final", "final_norm2"),
    ("jump", "log_weight", "log_weight"),
    ("jump", "weights", "norm2"),
    ("jump", "values", "observables"),
    ("mixing", "entropy", "entropy"),
    ("mixing", "min_eig", "min_eig"),
    ("mixing", "weights", "trace"),
])
def test_non_finite_value_names_seed_and_index(tmp_path, engine, column, key):
    cfg, cols, _ = run_case(engine, "linear", True, n=8)
    row = int(np.flatnonzero(cols.counts)[2])
    poison(cols, column, row)
    path = tmp_path / "t.jsonl"
    with pytest.raises(NumericError) as err:
        write_columns(path, cfg.seed, cols)
    assert str(err.value) == (
        f"non-finite {key} value in the record of trajectory index={row} "
        f"(seed={cfg.seed}); rerun that index alone to reproduce"
    )
    assert not path.exists()


def poison_batches(monkeypatch, column, row, failure="record"):
    """Make the event batches of the next runs fail at trajectory row,
    wherever they run: their engine raises, or (failure "record") a NaN is
    put into its column for the record scan to find."""
    for name in ("_jump_batch", "_mixing_batch"):
        def batch(*args, real=getattr(ensemble, name), **kwargs):
            cols = real(*args, **kwargs)
            if row in cols.indices:
                if failure == "engine":
                    raise NumericError("a late chunk failed")
                poison(cols, column, row - int(cols.indices[0]))
            return cols

        monkeypatch.setattr(ensemble, name, batch)


@pytest.mark.parametrize("experiment, column", [("jump", "values"), ("many", "entropy")])
def test_cli_non_finite_record_exits_3(tmp_path, monkeypatch, capsys, experiment, column):
    poison_batches(monkeypatch, column, 3)
    assert cli.main([experiment, "--traj", "8", "--out", str(tmp_path)]) == 3
    key = {"values": "observables", "entropy": "entropy"}[column]
    assert capsys.readouterr().err == (
        f"error: non-finite {key} value in the record of trajectory index=3 (seed=0); "
        "rerun that index alone to reproduce\n"
    )


@pytest.mark.parametrize("made", [True, False], ids=["new-directory", "existing-directory"])
@pytest.mark.parametrize("failure", ["record", "engine"])
@pytest.mark.parametrize("experiment, column", [("jump", "values"), ("many", "entropy")])
def test_cli_failure_in_the_last_chunk_leaves_nothing(tmp_path, monkeypatch, capsys, experiment,
                                                      column, failure, made):
    # Chunks of 3 rows: rows 0-5 are written before row 7 fails, either in
    # the record scan or in its engine, in the worker that runs it, and the
    # partial file goes, with the output directory if the run made it.
    monkeypatch.setattr("qtraj.ensemble._CHUNK", 3)
    sizes = chunk_sizes(monkeypatch)
    poison_batches(monkeypatch, column, 7, failure)
    out = tmp_path / "out" / "run"
    if not made:
        out.mkdir(parents=True)
    assert cli.main([experiment, "--traj", "8", "--out", str(out)]) == 3
    key = {"values": "observables", "entropy": "entropy"}[column]
    assert capsys.readouterr().err == ("error: a late chunk failed\n" if failure == "engine" else
                                       f"error: non-finite {key} value in the record of trajectory "
                                       "index=7 (seed=0); rerun that index alone to reproduce\n")
    assert sizes == [3, 3, 2]
    assert list(tmp_path.rglob("*")) == ([] if made else [tmp_path / "out", out])


def test_table_of_unequal_columns_is_not_written(tmp_path):
    path = tmp_path / "out" / "t.tsv"
    with pytest.raises(ValueError, match="^all table columns must have equal length$"):
        write_table(path, META, [("a", np.zeros(2)), ("b", np.zeros(3))])
    assert not path.parent.exists()


def test_table_bytes_equal_the_per_element_format(tmp_path):
    # Signed zero, the smallest subnormal, a large float and integers, each
    # row formatted as numpy scalars by records.fmt.
    columns = [("t", np.array([-0.0, 5e-324, 1e300, -1e300])),
               ("n", np.array([0, -3, 2 ** 53 + 1, 7])),
               ("x", [1, 2.5, -0.0, 1 / 3])]
    path = tmp_path / "t.tsv"
    write_table(path, META, columns)
    arrays = [np.asarray(col, dtype=float) for _, col in columns]
    rows = ["\t".join(records.fmt(arr[i]) for arr in arrays) for i in range(4)]
    header = ["# seed=41", "# spec_hash=0123456789abcdef", "# columns: t\tn\tx"]
    assert path.read_text() == "\n".join(header + rows) + "\n"
    assert rows[0].split("\t") == ["-0", "0", "1"]
    assert rows[1].split("\t")[0] == "4.9406564584124654e-324"

