import pytest

from block_helpers import assert_no_child_left


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    # the cone's members and the suppression curve's seeds fork on a host
    # with two CPUs or more, from 128 members or seeds up
    yield
    assert_no_child_left()
