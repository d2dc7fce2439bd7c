"""The solvers, the sweep and validate run on numpy alone, loading no scipy."""

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

    import eigenfilter as ef
    from eigenfilter import cli

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
    ef.reflection_eval(ef.FilterSpec(16, 0.1, "reflection"), 0.5)
    ef.eigenpath_length(inst)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate", "--suite", "all"]) == 0
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_solver_path_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
