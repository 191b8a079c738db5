import importlib.util
import os

spec = importlib.util.spec_from_file_location(
    "compare_outputs", os.path.join(os.path.dirname(__file__), "..", "tools", "compare_outputs.py"))
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_compare_dirs_reports_each_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("t,x\n0.5,1.0\n")
    # only line 2 of meta.txt (the version line) is masked
    (a / "run" / "meta.txt").write_text("edgelab 0.1.0\nnumpy 2.0, python 3.10\nkey = 1\n")
    (b / "run" / "meta.txt").write_text("edgelab 0.1.0\nnumpy 2.4, python 3.11\nkey = 1\n")
    (a / "run" / "data.csv").write_text("t,x,label\n0.0,1.0,a\n0.5,2.0,b\n")
    (b / "run" / "data.csv").write_text("t,x,label\n0.0,1.0,a\n0.5,2.5,c\n")
    (a / "check.txt").write_text("[PASS] one\n")
    (b / "check.txt").write_text("[FAIL] one\n")
    (a / "run" / "gone.csv").write_text("t\n")
    report = {rel: (ok, msg) for rel, ok, msg in compare_outputs.compare_dirs(str(a), str(b))}
    assert report[os.path.join("run", "same.csv")] == (True, "byte-identical")
    assert report[os.path.join("run", "meta.txt")] == (True, "byte-identical")
    assert report[os.path.join("run", "data.csv")] == (False, "x: max rel diff 2.000e-01; label: text differs")
    assert report["check.txt"] == (False, "text differs")
    assert report[os.path.join("run", "gone.csv")] == (False, "only in the parent")
    (b / "run" / "meta.txt").write_text("edgelab 0.1.0\nnumpy 2.4, python 3.11\nkey = 2\n")
    assert ("meta.txt", False, "text differs") in compare_outputs.compare_dirs(str(a / "run"), str(b / "run"))
    # each run writes its own output directory
    assert len({name for name, _, _ in compare_outputs.RUNS}) == len(compare_outputs.RUNS) == 15

