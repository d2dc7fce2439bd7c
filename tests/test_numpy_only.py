"""The solvers, the sweep, validate and the instance files run on numpy
alone, loading no scipy."""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent("""
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockScipy())

    import contextlib
    import io
    import os
    import tempfile

    import numpy as np

    import eigenfilter as ef
    from eigenfilter import cli
    from eigenfilter.numerics import DenseOperator, hermitian_part

    eps = 1e-3
    inst = ef.gen_instance(2, 4.0, 0)
    planted = ef.planted_tridiag_instance(2, 4.0, 0)
    for mode in ("postselect", "sample"):
        ef.solve_qsp_direct(inst, eps, mode=mode, seed=0)
        ef.solve_aqc_filtered(planted, eps, mode=mode, seed=0)
        ef.solve_zeno(planted, eps, mode=mode, seed=0)
    ef.solve_aqc_filtered(ef.gen_instance(2, 4.0, 1, "hermitian-indefinite"), eps)
    ef.solve_qsp_direct(ef.gen_instance(2, 4.0, 1, "general"), eps)
    ef.experiment_kappa_scaling(kappas=(2.0, 3.0), seeds=1, n=2)
    ef.reflection_eval(ef.FilterSpec(16, 0.1), 0.5)
    ef.eigenpath_length(inst)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate", "--suite", "all"]) == 0

    # instance files: a real symmetric, a general and a complex Hermitian
    # block, then gen --out and solve --in through the command line
    herm = ef.gen_instance(2, 4.0, 2, "hermitian-indefinite")
    phases = np.exp(1j * np.arange(herm.dim))
    a = hermitian_part(phases[:, None] * herm.A.mat * phases.conj()[None, :])
    herm = ef.QlspInstance(DenseOperator(a, hermitian=True), herm.b, herm.kappa,
                           herm.d, form=herm.form)
    with tempfile.TemporaryDirectory() as tmp:
        for name, inst in [("real symmetric", inst), ("complex hermitian", herm),
                           ("real general", ef.gen_instance(2, 4.0, 1, "general"))]:
            path = os.path.join(tmp, "a.qlsp")
            back = ef.io_roundtrip(path, inst)
            assert "coordinate " + name in open(path).read(), name
            assert back.A.mat.tobytes() == inst.A.mat.tobytes(), name
            assert back.b.amps.tobytes() == inst.b.amps.tobytes(), name
        path = os.path.join(tmp, "p.qlsp")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", "--n", "3", "--kappa", "4", "--seed", "2",
                             "--form", "planted", "--out", path]) == 0
            assert cli.main(["solve", "--in", path, "--method", "aqc"]) == 0
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_solver_path_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
