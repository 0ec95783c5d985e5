"""The public names of every catmap module import, and its doctests pass."""

import doctest
import importlib
import os
import pkgutil
import shlex
import subprocess
import sys

import pytest

import catmap
from catmap import cli

MODULES = sorted(
    f"catmap.{info.name}" for info in pkgutil.iter_modules(catmap.__path__)
) + ["catmap"]


@pytest.mark.parametrize("module", ["catmap.arith", "catmap.quadorder"])
def test_star_import_finds_every_name_in_all(module):
    names = {}
    exec(f"from {module} import *", names)
    assert set(importlib.import_module(module).__all__) <= set(names)


def test_every_module_passes_its_doctests():
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 2  # the `factorize` and `order_mod` examples


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only; its import would double every CLI
    # call's start-up time
    src = os.path.dirname(os.path.dirname(catmap.__file__))
    code = (
        "import sys, catmap, catmap.cli\n"
        "assert catmap.__file__.startswith(sys.argv[1]), catmap.__file__\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the names `import catmap` gives, a star import included
PUBLIC_NAMES = (
    "CatMap ClassSplit CongruenceCount DEFAULT_MAP Factorization IntegerRecord Mat2Mod "
    "Observable Operator OrderProfile PrimeClass PrimeRecord SmallOrderFactorization "
    "Spectrum SplitType StateVector SweepRecord arith c_eta census classify_prime "
    "congruence_count egorov_residual errors expectation factorize fourth_moment "
    "integer_census is_probable_prime lcm_defect load_results mat_pow_mod max_deviation "
    "minus_one_exponent norm_one_count order_dividing order_mod order_mod_brute "
    "order_profile prime_census primes_up_to propagator propagator_spectrum quadorder "
    "quantum quantum_sweep resume_point small_order_modulus small_order_report spectrum "
    "split_by_class splitting_character store_results translation translation_trace "
    "trivial_solution_count variance_stat weyl_quantize"
).split()


def test_order_and_census_calls_load_neither_quantum_nor_checks(tmp_path):
    # the quantum stack and the check suite are compiled and imported only by
    # the commands that run them
    src = os.path.dirname(os.path.dirname(catmap.__file__))
    code = (
        "import sys, catmap.cli\n"
        "out, loaded = sys.argv[1], []\n"
        "for argv in (['census-primes', '-x', '2000', '--out', out + '/p.csv'],\n"
        "             ['census-integers', '-x', '2000', '--out', out + '/i.csv'],\n"
        "             ['order', '-N', '55'],\n"
        "             ['sweep', '--sizes', '3-9', '--out', out + '/s.csv'],\n"
        "             ['check', '--quick', '--only', 'prime-kernel-vs-scalar']):\n"
        "    assert catmap.cli.main(argv) == 0, argv\n"
        "    loaded.append([m for m in ('catmap.quantum', 'catmap.checks') if m in sys.modules])\n"
        "print(loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after = proc.stdout.splitlines()[-1]
    assert after == str([[], [], [], ["catmap.quantum"], ["catmap.quantum", "catmap.checks"]])


def test_every_public_name_resolves_and_star_imports():
    src = os.path.dirname(os.path.dirname(catmap.__file__))
    code = (
        "import sys, catmap\n"
        "assert 'catmap.quantum' not in sys.modules\n"
        "names = sys.argv[1:]\n"
        "missing = [n for n in names if getattr(catmap, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert sorted(catmap.__all__) == sorted(names), catmap.__all__\n"
        "assert set(names) <= set(dir(catmap))\n"
        "scope = {}\n"
        "exec('from catmap import *', scope)\n"
        "assert set(catmap.__all__) <= set(scope)\n"
        "from catmap import quantum\n"
        "assert catmap.quantum is quantum and catmap.propagator is quantum.propagator\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, *PUBLIC_NAMES],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        catmap.nope


def test_a_cli_sweep_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs every sweep call import time and memory; np.unique loads
    # it when asked for no counts
    src = os.path.dirname(os.path.dirname(catmap.__file__))
    code = (
        "import sys, catmap.cli\n"
        "assert catmap.cli.main(['sweep', '--sizes', '3-40', '--out', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("False\n")


def test_the_readme_library_tour_runs():
    # every public name the tour shows must keep working under that name
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _readme_cli_lines() -> list[str]:
    """Every `catmap ...` line of the README's sh blocks, comment stripped."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = [block.split("```")[0] for block in fh.read().split("```sh\n")[1:]]
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("catmap ")]


def test_the_readme_cli_examples_parse(capsys):
    # a flag renamed in the CLI cannot leave the README stale
    lines = _readme_cli_lines()
    assert len(lines) >= 13
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    assert "catmap order --matrix 2,1,3,2 -N 55" in lines
    assert cli.main(["order", "--matrix", "2,1,3,2", "-N", "55"]) == 0
    assert capsys.readouterr().out == "30\n"  # as the README says
