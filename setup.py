"""Setup shim.

The execution environment has no network access, so PEP-517 build isolation
(which downloads setuptools/wheel) cannot run; this shim lets
``pip install -e . --no-use-pep517`` perform a legacy editable install with
the locally available setuptools.  Metadata lives here so the install also
works without a ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Fast subtrajectory similarity search in road networks under "
        "weighted edit distance constraints (Koide et al., PVLDB 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The verifier's C kernel is compiled on first use, from the source.
    package_data={"repro": ["py.typed", "core/_wedkernel.c"]},
    python_requires=">=3.10",  # dataclass(slots=True) in core/results & engine
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
