import copy

import pytest

from bench import manifest, tracer, workloads


@pytest.mark.parametrize("name", ["wall_s", "spectral.eigh_calls", "kg-cascade", "9x", "a" * 64])
def test_valid_names(name):
    assert manifest.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "é", "a" * 65, "x\n"])
def test_invalid_names(name):
    assert not manifest.valid_name(name)


def test_units():
    assert all(manifest.valid_unit(u) for u in ("s", "ms", "1/s", "%", "count/root", "MB"))
    assert not any(manifest.valid_unit(u) for u in ("", "m s", "a" * 17))


def test_benchmark_json_is_valid_and_names_what_the_harness_runs():
    doc = manifest.load()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # every listed per-layer metric is computed by the tracer or the harness
    produced = set(tracer.layer_metrics([])) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in doc["per_layer"]} == produced


@pytest.mark.parametrize("section, entry", [
    ("per_layer", {"name": "bad name", "unit": "s", "better": "lower"}),
    ("per_layer", {"name": "wall_s", "unit": "s", "better": "lower"}),
    ("per_layer", {"name": "ok", "unit": "per second", "better": "lower"}),
    ("end_to_end", {"name": "ok", "unit": "s", "better": "lower", "bound": 0.5}),
    ("workloads", {"name": "ok", "why": "two\nlines"}),
])
def test_validate_rejects_bad_entries(section, entry):
    doc = copy.deepcopy(manifest.load())
    doc[section].append(entry)
    with pytest.raises(ValueError):
        manifest.validate(doc)
