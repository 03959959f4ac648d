"""Tiny-size self-test of the benchmark driver and tracer (a few seconds).

    python3 perfbench/selftest.py

Checks the mechanics, not the program's speed or accuracy:
- the tracer on a stand-in package: call counts, self time, parent spans,
  aliases, absent names, failing hooks, and restoring what it wrapped;
- the derived sparse-coding counters on stand-in calls;
- every workload at a few hundred rows in both modes: the result object has
  exactly the keys of the contract and the metrics BENCHMARK.json lists;
- the benchmark exits non-zero without printing a result when the program's
  sources are missing.
Output checks are expected to fail at this size and are not asserted.
"""

import contextlib
import io
import json
import math
import sys
import types

import run  # first: it pins BLAS to one thread before numpy loads

import numpy as np
from tracer import Tracer

TINY = run.Sizes(source_rows=200, target_rows=300, outer_iterations=3, batch_size=16)


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def fake_package(name, sources):
    """Register modules ``name.<key>`` built from source strings."""
    package = types.ModuleType(name)
    package.__path__ = []
    sys.modules[name] = package
    modules = {}
    for key, source in sources.items():
        module = types.ModuleType(f"{name}.{key}")
        module.__dict__.update(modules)
        exec(source, module.__dict__)
        sys.modules[f"{name}.{key}"] = module
        setattr(package, key, module)
        modules[key] = module
    return modules


def test_tracer():
    mods = fake_package("fakepkg", {
        "inner": "import time\ndef leaf(x):\n    time.sleep(0.002)\n    return x\n",
        "outer": (
            "leaf = inner.leaf\n"
            "def work(n):\n"
            "    return sum(leaf(i) for i in range(n))\n"
            "def broken_hook_target(x):\n"
            "    return x\n"
        ),
    })
    original_leaf = mods["inner"].leaf

    def bad_hook(tracer, args, result):
        raise KeyError("signature changed")

    tracer = Tracer("fakepkg", ["outer.work", "inner.leaf", "outer.gone", "nomodule.f",
                                "outer.broken_hook_target"],
                    run_id="selftest", hooks={"outer.broken_hook_target": bad_hook})
    tracer.install()
    try:
        with tracer.phase("command"):
            expect(mods["outer"].work(3) == 3, "wrapped function result changed")
            mods["outer"].broken_hook_target(1)
    finally:
        tracer.uninstall()
    tracer.install().uninstall()  # a second install reports the same names
    expect(mods["inner"].leaf is original_leaf, "uninstall did not restore inner.leaf")
    expect(mods["outer"].leaf is original_leaf, "uninstall did not restore the alias")
    expect(tracer.absent == ["outer.gone", "nomodule.f", "outer.broken_hook_target:hook"],
           f"absent names misreported: {tracer.absent}")
    work, leaf = tracer.layer("command", "outer.work"), tracer.layer("command", "inner.leaf")
    expect(work["calls"] == 1 and leaf["calls"] == 3, "call counts wrong (alias not traced?)")
    expect(leaf["total_s"] >= 0.006, "leaf time not recorded")
    expect(abs(work["self_s"] - (work["total_s"] - leaf["total_s"])) < 1e-9,
           "self time is not total minus direct children")
    expect(tracer.layer("setup", "outer.work")["calls"] == 0, "phases not separated")
    summary = tracer.summary()
    expect(summary["spans"] == 5 and summary["run_id"] == "selftest", "span count wrong")
    out = run.WORK / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out / "spans.npz")
    spans = np.load(out / "spans.npz")
    names = list(spans["names"])
    parents = spans["parent"]
    for i, name_id in enumerate(spans["name"]):
        if names[name_id] == "inner.leaf":
            expect(names[spans["name"][parents[i]]] == "outer.work", "leaf parent is not work")
    expect(np.all(spans["end"] >= spans["start"]), "span ends before it starts")


def test_derived_counters():
    mods = fake_package("fakerp", {
        "sparse_coding": (
            "def omp_encode(dictionary, signal, cfg):\n"
            "    return Code(support=(0, 1), coefficients=None, residual_l1=signal[0])\n"
            "def ksvd_run(signals, dictionary, cfg):\n"
            "    return [omp_encode(dictionary, s, cfg) for s in signals + signals]\n"
        ),
    })
    sc = mods["sparse_coding"]
    sc.Code = types.SimpleNamespace
    dictionary = types.SimpleNamespace(atoms=np.eye(3))
    cfg = types.SimpleNamespace(epsilon=0.5, max_atoms=2, residual_norm="l1")
    signals = [np.array([0.1, 0.0, 0.0]), np.array([0.9, 0.0, 0.0])]
    tracer = Tracer("fakerp", ["sparse_coding.ksvd_run", "sparse_coding.omp_encode"],
                    run_id="selftest", hooks=run.DerivedCounters().hooks())
    tracer.install()
    try:
        with tracer.phase("command"):
            sc.ksvd_run(signals, dictionary, cfg)
            sc.ksvd_run(signals, dictionary, cfg)  # a new ksvd_run starts afresh
    finally:
        tracer.uninstall()
    count = lambda key: tracer.counter("command", key)
    expect(count("omp_codes") == 8, "omp codes miscounted")
    expect(count("omp_repeats") == 4, f"repeats miscounted: {count('omp_repeats')}")
    expect(count("omp_stop_epsilon") == 4 and count("omp_stop_max_atoms") == 4,
           "stop reasons misclassified")


def test_driver(spec):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from the driver's")
    for workload in run.WORKLOADS.values():
        for trace in (False, True):
            document = run.run_workload(workload, seed=3, seconds=0.01, trace=trace,
                                        sizes=TINY, work=run.WORK / "selftest")
            result = document["result"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "result keys differ from the contract")
            expect(result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"],
                   "attempted/failed inconsistent")
            expected = per_layer if trace else end_to_end
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected, f"{workload.name} trace={trace}: metrics differ "
                   f"from BENCHMARK.json: {set(got) ^ set(expected)}")
            for name, metric in result["metrics"].items():
                expect(isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]),
                       f"{name} is not a finite number")
            if trace:
                layers = document["trace"]["phases"]["command"]["layers"]
                for name, stats in layers.items():
                    expect(stats["self_s"] <= stats["total_s"] + 1e-9, f"{name}: self > total")
                expect(layers["program.reprogram_train"]["calls"] == 1, "reprogram_train not traced")


def test_missing_sources():
    real_src = run.SRC
    run.SRC = run.WORK / "selftest" / "no-src"
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "bag_fixed_dict", "--seed", "1"])
    finally:
        run.SRC = real_src
    expect(code != 0 and stdout.getvalue() == "", "missing sources not refused")


def main() -> int:
    if not (run.SRC / run.PACKAGE).is_dir():
        print(f"error: the {run.PACKAGE} sources are not at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for test in (test_tracer, test_derived_counters, test_missing_sources):
        test()
        print(f"ok {test.__name__}")
    with contextlib.redirect_stdout(io.StringIO()):
        test_driver(spec)
    print("ok test_driver")
    return 0


if __name__ == "__main__":
    sys.exit(main())
