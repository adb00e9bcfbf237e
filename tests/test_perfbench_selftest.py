"""The benchmark's self-test: every workload at a tiny size, timed and
traced.  It fails when a layer entry point the tracer binds by name is
renamed or moved, or when an instance no longer verifies.  A second test
keeps the names that ``src/coverplex`` holds only for the benchmark in step
with what the benchmark reads."""

import ast
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coverplex"
PERFBENCH = ROOT / "perfbench"
NOQA = "# noqa: F401"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def benchmark_shims():
    """(module, name) of every name a module of src/coverplex keeps only
    for the benchmark: each import marked ``# noqa: F401`` and each
    module-level name bound to None."""
    shims = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        marked = 0
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and \
                    NOQA in lines[node.end_lineno - 1]:
                marked += 1
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Constant) and \
                    node.value.value is None:
                names = [target.id for target in node.targets]
            else:
                continue
            shims += [(path.stem, name) for name in names]
        assert marked == text.count(NOQA), path.name
    return shims


def benchmark_reads():
    """(module, name) of every program name perfbench reads: the tracer's
    BINDINGS, the names Tracer.install patches, and each cp.module.name
    that the workloads use."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:  # its dataclasses look their module up by name
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    reads = {(module, name) for module, name, *_ in tracer.BINDINGS}
    reads.update(re.findall(r'patch\(cp\.(\w+), "(\w+)"',
                            inspect.getsource(tracer.Tracer.install)))
    reads.update(re.findall(r"\bcp\.(\w+)\.(\w+)",
                            (PERFBENCH / "workloads.py").read_text()))
    return reads


def test_every_benchmark_shim_is_still_read_by_the_benchmark():
    # a name kept in src/ only for perfbench is deleted with the last
    # binding that reads it; this names the shim to delete
    reads = benchmark_reads()
    unread = ["%s.%s" % shim for shim in benchmark_shims()
              if shim not in reads]
    assert unread == [], "no benchmark code reads these shims: %s" % unread
