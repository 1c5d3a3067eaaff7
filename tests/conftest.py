import importlib.util
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from tautilt.textio import parse_algebra_file, parse_algebra_text

DATA = pathlib.Path(__file__).parent / "data"
GENERATOR = pathlib.Path(__file__).parent.parent / "perfbench" / "algebras.py"


def load(name):
    return parse_algebra_file(str(DATA / name))


@pytest.fixture(scope="session")
def nak6():
    return load("nakayama6.alg")


@pytest.fixture(scope="session")
def nak4():
    return load("nakayama4.alg")


@pytest.fixture(scope="session")
def prep3():
    return load("preproj_a3.alg")


@pytest.fixture(scope="session")
def a2():
    return load("a2.alg")


@pytest.fixture(scope="session")
def kronecker():
    return load("kronecker.alg")


@pytest.fixture(scope="session")
def one_vertex():
    return load("one_vertex.alg")


@pytest.fixture(scope="session")
def algebras():
    """The benchmark's algebra generator, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_algebras",
                                                  GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def pa4(algebras):
    """The preprojective algebra of A4."""
    return parse_algebra_text(algebras.preprojective(4))


@pytest.fixture(scope="session")
def witness():
    return load("gorenstein_witness.alg")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def data_dir():
    return DATA
