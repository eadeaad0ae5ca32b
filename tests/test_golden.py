"""Golden bytes: the sha256 of every file the README quickstart and its
variants write, and a few literal fingerprints and cache keys.

A change to any serialized form or fingerprint shows up here as a changed
hash; update a value only together with a note saying why it moved.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import conceptcheck as cc
from conceptcheck.cli import main
from clirunner import CliRunner

GRAPH = "fixture:medical_graph.json"
PERFECT = '{"kind": "perfect"}'
NOISY = '{"kind": "noisy", "flip_probability": 0.3, "seed": 7}'
NOISY_RESULTS = "base/results-noisy-p0.3-s7.jsonl"


def _run(root: Path, *args: str) -> None:
    argv = [a.replace("@", f"{root}/") for a in args]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.output


def _file_hashes(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, str]:
    """Run the quickstart and its variants; `@` stands for the output root."""
    root = tmp_path_factory.mktemp("golden")
    _run(root, "extract", "--dump", "fixture:medical_dump.jsonl",
         "--seed-concept", "Q3332438", "--seed-property", "P425", "--out", "@graph.json")
    _run(root, "generate", "--graph", GRAPH, "--seed", "1", "--negative-count", "66", "--out", "@dataset.json")
    _run(root, "evaluate", "--dataset", "@dataset.json", "--graph", GRAPH,
         "--backend", PERFECT, "--backend", NOISY, "--out-dir", "@base")
    _run(root, "augment", "--dataset", "@dataset.json", "--graph", GRAPH,
         "--baseline", f"@{NOISY_RESULTS}", "--out-dir", "@aug")
    _run(root, "report", "--dataset", "@dataset.json", "--results", "@base/results-perfect.jsonl",
         "--results", f"@{NOISY_RESULTS}", "--baseline", f"@{NOISY_RESULTS}", "--out-dir", "@report")
    _run(root, "scenarios", "--graph", GRAPH, "--out-dir", "@scen")
    _run(root, "generate", "--graph", GRAPH, "--path-granularity", "path", "--out", "@dataset-path.json")
    _run(root, "augment", "--dataset", "@dataset.json", "--graph", GRAPH, "--granularity", "cluster",
         "--baseline", f"@{NOISY_RESULTS}", "--out-dir", "@aug-cluster")
    _run(root, "evaluate", "--dataset", "@dataset.json", "--graph", GRAPH, "--context", "@aug/context.json",
         "--backend", PERFECT, "--backend", NOISY, "--out-dir", "@ctx")
    return _file_hashes(root)


GOLDEN_FILES = {
    "aug/context.json": "2c8dacb438b11017aca38f3ac6a2e0f920cd937f57f45339b046320d24327579",
    "aug/report.csv": "7c157791bde993a00919c111c861732500ae0c65ec267b689eedd540600f48a1",
    "aug/report.md": "5a457b5916fe0cf0280fb324a3cb3f5f9db55d461d165052fcb3d0ff46a2f5cc",
    "aug/results-perfect-augmented.jsonl": "c351b0aaafe00ab80fa2c631c0e447b69405679e15c77ced87c850550b80994b",
    "aug-cluster/context.json": "09926ca715cb82b03f8049fe9fc77030a79643b60fcc755c4718dea22f8608ef",
    "aug-cluster/report.csv": "7c157791bde993a00919c111c861732500ae0c65ec267b689eedd540600f48a1",
    "aug-cluster/report.md": "5a457b5916fe0cf0280fb324a3cb3f5f9db55d461d165052fcb3d0ff46a2f5cc",
    "aug-cluster/results-perfect-augmented.jsonl": "34629b4438e3876b1d98131b639adb76073e273ee168b3e86eeaf87f633d9207",
    "base/report.csv": "63437a87ab98ff4ae13f47c250c1f5de65e05d2a78056fb67315b825feeb307c",
    "base/report.md": "ba1bbd940c71860c8c2ddcf339a9094c3008f0be7b1823c73c84d9764a7a2b05",
    "base/results-noisy-p0.3-s7.jsonl": "6101a54a1a6aa87e0294ac9b41aeabb01680dce03a4fc1dcd81ca32684b83079",
    "base/results-perfect.jsonl": "7b396870b9883647d209f4415ee6c93b44bba1f7fc14ec94e5731ab482e0416f",
    "ctx/report.csv": "63437a87ab98ff4ae13f47c250c1f5de65e05d2a78056fb67315b825feeb307c",
    "ctx/report.md": "ba1bbd940c71860c8c2ddcf339a9094c3008f0be7b1823c73c84d9764a7a2b05",
    "ctx/results-noisy-p0.3-s7.jsonl": "2080f33203cff36258511b1d21c4b256e754df8d55c14cbe1d0a7694a0dcd8aa",
    "ctx/results-perfect.jsonl": "c351b0aaafe00ab80fa2c631c0e447b69405679e15c77ced87c850550b80994b",
    "dataset-path.json": "0cd814f0848774634506199ffd3731ddc995c683389e4b4f9182bf6241ae99db",
    "dataset.json": "b2470c47f8232df46a78dcfe837bbecaa2c2a5f88f4ff603834d9d9a5f660261",
    "graph.json": "21becefb10181126eeb17934516be4ac064ca748404dce415c67f4cce875c91d",
    "graph.manifest.json": "a79c3f1d40a70c00b6aa69d1592cb4c3346f8261e509e56f190ab776714d0b49",
    "report/report.csv": "a5afcbecc2be8093f0cb08f22887273b3b8099e3d06e974d74ca2bfa420e435a",
    "report/report.md": "0a44061adc41625df5d35cf934ba78088aa9064d6b8c9928345951d2fd2feedc",
    "scen/scenario-report-perfect.md": "30961d0a9326819f696937887cea325556d1698e269b6a98200f8cc506bb0538",
    "scen/scenario-results-perfect.jsonl": "de0a8f696fceef75f2dbe66ac02552f05b13945d59292dab7b43e9fb4df63ce1",
    "scen/scenario-summary.md": "d423bb3581e5b2780e7ce96752ba06d5277a0f5811ed556eb67d4bda563ea3d2",
}


def test_every_written_file_keeps_its_bytes(written):
    assert written == GOLDEN_FILES


def test_fingerprints_and_cache_key_keep_their_values(medical_dataset):
    context = cc.ContextBlock(
        statements=("a surgeon is a physician", "every nurse is a health professional"),
        source_cluster_ids=("c1",),
        backend_ids=("b",),
        dataset_fingerprint=cc.dataset_fingerprint(medical_dataset),
    )
    assert {
        "prompt": cc.load_default_prompt().fingerprint(),
        "dataset": cc.dataset_fingerprint(medical_dataset),
        "context": context.fingerprint(),
        "cache_key": cc.ResponseCache.key("m", "p", "q"),
    } == {
        "prompt": "a62035ef25ffb3fc35d8668f6b28fbac82686140b7ac2b45d72b9ba6fdf5e5a1",
        "dataset": "dc6b8ce4cdc6926c947b5533affe8d820436f5314fc49720fc1a9fde67c285c2",
        "context": "8631bfdae74b801b43f071f078beac9dae5576daa49f8c4b5620c5fff1dce7fc",
        "cache_key": "f4e1c8aaaecea26707b2d6e23d747f9891d510eefd4d1cf276dbd8bc3e73070c",
    }
