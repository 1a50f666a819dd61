from pathlib import Path

from hypothesis import settings

# No per-example deadline: example times swing with load on small shared
# machines. Derandomized runs draw the same examples every time.
settings.register_profile("termassoc", deadline=None, derandomize=True)
settings.load_profile("termassoc")


def pytest_report_header(config):
    # pyproject.toml puts this checkout's src ahead of PYTHONPATH, so name the package actually under test.
    import termassoc

    return f"termassoc under test: {Path(termassoc.__file__).parent}"
