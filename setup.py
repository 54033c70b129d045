"""Setup shim: offline environments lack the `wheel` package, so the
modern PEP-517 editable path cannot build; this shim lets pip fall back to
the legacy `setup.py develop` editable install."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Swift: Reliable and Low-Latency Data Processing "
        "at Cloud Scale (ICDE 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.3"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
