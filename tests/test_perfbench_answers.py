"""The benchmark's recorded answers must still hold: a slice of each
workload is run and checked against ``perfbench/expected``."""

from conftest import load_perfbench


def _check_all(wl, ops):
    for op in ops:
        problem = wl.check(op, op.prepare()())
        assert problem is None, f"{op.instance}: {problem}"


def test_decompose_answers_match_recorded():
    workloads = load_perfbench("workloads")
    wl = workloads.Decompose(workloads.load_expected("decompose"))
    wl.setup()
    ops = [op for op in wl.all_ops()
           if (op.n == 2 and op.seed < 5) or (op.n == 3 and op.seed == 10001)]
    assert sorted(op.seed for op in ops) == [0, 1, 2, 3, 4, 10001]
    _check_all(wl, ops)


def test_verify_answers_match_recorded(tmp_path):
    workloads = load_perfbench("workloads")
    wl = workloads.Verify(workloads.load_expected("verify"), str(tmp_path))
    wl.setup()
    # The first file of every (kind, n) group of the verify mix.
    firsts = {f"{kind}-{workloads.instance_id(first, n)}" for kind, n, first, _, _ in workloads.VERIFY_MIX}
    ops = [op for op in wl.all_ops() if op.instance in firsts]
    assert len(ops) == len(firsts) == 5
    _check_all(wl, ops)
