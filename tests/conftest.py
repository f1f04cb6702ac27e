import multiprocessing
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    # guards the forked DE builds and the spawned campaign pools
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.kill()
        proc.join(10)
    assert not alive, f"child processes still running after the test: {alive}"
