"""Shared fixtures: bundled models and their objective products, and the
scalable families of the benchmark under ``perfbench/``."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ctsched.data import load_automaton, load_model
from ctsched.formats import ModelSource, parse_model
from ctsched.product import build_product

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def riskreward():
    m = load_model("riskreward")
    a = load_automaton("riskreward")
    return m, a, build_product(m, a)


@pytest.fixture(scope="session")
def mars():
    m = load_model("mars")
    a = load_automaton("fig1")
    return m, a, build_product(m, a)


@pytest.fixture(scope="session")
def polling():
    m = load_model("polling2")
    a = load_automaton("polling")
    return m, a, build_product(m, a)


@pytest.fixture(scope="session")
def perfbench():
    """perfbench(name): the module ``perfbench/<name>.py``, loaded by path
    so that it joins neither ``sys.path`` nor ``sys.modules``."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture(scope="session")
def hazard_line(perfbench):
    """hazard_line(n) -> (product, rates): the rover line of
    ``perfbench/families.py`` with n + 1 zones at the rates of seed 1, times
    its automaton."""
    families = perfbench("families")
    rates = families.hazard_params(np.random.default_rng(1))
    a = load_automaton(families.HAZARD_HOA[:-len(".hoa")])

    def make(n):
        text = families.hazard_text(n, **rates)
        return build_product(parse_model(ModelSource(text, origin=f"hazard{n}")),
                             a), rates
    return make


@pytest.fixture(scope="session")
def polling_family(perfbench):
    """polling_family(k, **rates) -> product: the two-queue polling system
    of ``perfbench/families.py`` with queues of capacity k, times its
    automaton."""
    families = perfbench("families")
    a = load_automaton(families.POLLING_HOA[:-len(".hoa")])

    def make(k, **rates):
        text = families.polling_text(k, **rates)
        return build_product(parse_model(ModelSource(text, origin=f"polling{k}")),
                             a)
    return make
