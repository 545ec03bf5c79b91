import pytest

from latdefect import evaluate_expression


@pytest.fixture(scope="session")
def ybar_report():
    # shared by the tests that read the main example's report
    return evaluate_expression("Y(2; 15/13, 17/3, 23/22)")
