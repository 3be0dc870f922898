"""Golden pins for the reproducibility contract.

Each CLI case writes one document with ``--out`` and compares the SHA-256
of its bytes with the digest recorded before the CLI was rewritten; the
seed ladder and the cost-matrix sampler are pinned the same way.  A
kernel, RNG, serializer or CLI change that moves any output bit fails
here by name.
"""

import hashlib

import pytest

from graf import enumerator, montecarlo
from graf.cli import main
from graf.field import sample_cost_matrix, write_matrix_csv
from graf.montecarlo import derive_seed

from conftest import assume_cores

MATRIX_SEED = 2020

NEARMAX_CONFIG = (
    "n=3,4\neps=0.1,0.3\nreps=30\nseed=7\nm-reps=500\nworkers=1\nsensitivity=true\n"
)

# name -> (argv with {matrix}, {matrix9} and {config} placeholders, SHA-256 of the
# --out bytes); {matrix9} is the 9 x 9 matrix of seed 0.
CLI_CASES = {
    "solve-brute": (
        ["solve", "--input", "{matrix}", "--method", "brute"],
        "8a8cb4c9b810b08d75addeb8fca4ea71b7127559d0a3512e5c26ba4011d4bda2",
    ),
    "solve-exact": (
        ["solve", "--input", "{matrix}", "--method", "exact"],
        "f4d0dc80065ecb29f5663b9078485345972e0487e4eea0f6f8a5e38358c1390f",
    ),
    "solve-greedy": (
        ["solve", "--input", "{matrix}", "--method", "greedy"],
        "6ee0033e666a39a0ce2a96067e99bf1977de7dd86c4beea15349ef710c67df55",
    ),
    "solve-min": (
        ["solve", "--input", "{matrix}", "--method", "min"],
        "854d219ee86c41bd02d3910284dc480cda14502c2d231cfc92dd4ab57c8916a8",
    ),
    "bounds": (
        ["bounds", "--n-list", "1,2,5,13,40", "--eps", "0.05,0.2",
         "--delta", "0.3,0.7", "--c-small", "1.5", "--c-large", "0.5"],
        "9c1478c716bedee1006daa8f9559fe074cb873bb52d94545e765bbeca21164b2",
    ),
    "estimate-json": (
        ["estimate", "--n", "3", "--reps", "4100", "--seed", "11", "--workers", "2"],
        "970d0067b9143f26f6b4ec9776a0c52610b099d29383554ba9ab753f3a852c62",
    ),
    "estimate-csv": (
        ["estimate", "--n", "4", "--reps", "300", "--seed", "12", "--workers", "1",
         "--format", "csv"],
        "a64aab435634d683b8dd92a5d88736646dbead8d48f4094da77da3c45b7d639a",
    ),
    "ratio-table": (
        ["ratio-table", "--n-list", "2,3,6", "--reps", "200", "--seed", "13",
         "--workers", "1"],
        "d3328c7b5d8624e50910cc0a45a8705f1ca2e3a65e633eaf33ab99b130b82a4c",
    ),
    # Sizes on both sides of the kernel's reduced-cost crossover (n = 40),
    # and one whose row tasks span two sampling passes (n = 100).
    "ratio-table-large": (
        ["ratio-table", "--n-list", "39,40,64,100", "--reps", "24", "--seed", "21",
         "--workers", "1"],
        "880ea08570e11697d75140555cb55ab57c525165b2482ac61d0c177c79f162ba",
    ),
    "nearmax-config": (
        ["nearmax", "--config", "{config}"],
        "cd7dd093584c4729712af23d2c72cc1d807402b8951fb1961c451b0bcd9dea42",
    ),
    # 5000 matrices cross a block of 4096, so each size's counting is two
    # tasks (many more in the pooled run).
    "nearmax-blocks": (
        ["nearmax", "--n", "3,5", "--eps", "0.2,0.4", "--reps", "5000", "--m-reps", "100",
         "--seed", "4", "--sensitivity"],
        "f8aad59522f23ff1e421e1a61e66cd1a202b7ece6b3f0bfa2944045dbb9eede4",
    ),
    "enumerate": (
        ["enumerate", "--input", "{matrix}"],
        "ecf5b9aa8aabdecbe0611619007a602bcb00f1cc3044e359f70bd91fd97032e4",
    ),
    # 9! rows span two raw_sum_blocks blocks; same digest as the benchmark's
    # enumerate-n9 pin.
    "enumerate-n9": (
        ["enumerate", "--input", "{matrix9}"],
        "ab2471fb7bfb0595dec9ea85aa40bb2ad4990c1795a85c791705eb0a2adaa244",
    ),
    "verify": (
        ["verify", "--n", "3,4", "--delta", "0.3,0.6", "--seed", "14"],
        "ad6e6359d0113efe9bbcbee0de500a3aa4ece45325a18bb397efde304fa38d8a",
    ),
}

DERIVE_SEED_CASES = [
    ((0,), 0),
    ((0, 0), 16294208416658607535),
    ((42, 7), 14769051326987775908),
    ((404, 8, 1, 999), 13771601102998867201),
    ((2**64 - 1, 3, 1, 4), 17261599609623291242),
]

# (n, seed) -> SHA-256 of sample_cost_matrix(n, seed).entries.tobytes()
MATRIX_CASES = {
    (1, 0): "43fe1d88f5502abb2b7d6e758a0df52205be07b6d75eadb54909adc6a59516e1",
    (4, 42): "c6b7d514d8b669d1df51224a98dce20dc2c2cca1b332b4d8f5bcfb6bad64ba3c",
    (10, 2**64 - 1): "b69cc447a237bf0a0c420470ab39dcf0bdff7a7367ed3faf242dce680c91f671",
    (50, 7): "5ba1ae760a6099716ce2aa84fa6875f0763a17cf38ce59b108c1eb61b6e4fb76",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(tmp_path, argv: list[str]) -> bytes:
    matrix = tmp_path / "matrix.csv"
    write_matrix_csv(sample_cost_matrix(5, MATRIX_SEED), matrix)
    matrix9 = tmp_path / "matrix9.csv"
    write_matrix_csv(sample_cost_matrix(9, 0), matrix9)
    config = tmp_path / "nearmax.cfg"
    config.write_text(NEARMAX_CONFIG)
    out = tmp_path / "out"
    argv = [arg.format(matrix=matrix, matrix9=matrix9, config=config) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_document_digest(name, tmp_path, capsys):
    argv, digest = CLI_CASES[name]
    assert _sha256(_run_case(tmp_path, argv)) == digest


@pytest.mark.parametrize(
    "name", ["ratio-table", "ratio-table-large", "nearmax-config", "nearmax-blocks"]
)
def test_pooled_document_digest(name, tmp_path, capsys, monkeypatch):
    # Small row and counting tasks, so two workers share the m-pass, the
    # counting and every size.
    monkeypatch.setattr(montecarlo, "sample_chunk_size", lambda n: 64)
    monkeypatch.setattr(enumerator, "COUNT_TASK_ASSIGNMENTS", 100)
    assume_cores(monkeypatch, 2)
    argv, digest = CLI_CASES[name]
    assert _sha256(_run_case(tmp_path, argv + ["--workers", "2"])) == digest


@pytest.mark.parametrize("args, expected", DERIVE_SEED_CASES)
def test_derive_seed_pins(args, expected):
    assert derive_seed(*args) == expected


@pytest.mark.parametrize("n, seed", sorted(MATRIX_CASES))
def test_cost_matrix_digest(n, seed):
    entries = sample_cost_matrix(n, seed).entries
    assert _sha256(entries.tobytes()) == MATRIX_CASES[(n, seed)]
