"""Build script: packages plus the optional compiled kernel tier.

The environment has no `wheel` package (offline), so PEP 660 editable
installs fail; `pip install -e . --no-use-pep517 --no-build-isolation`
falls back to `setup.py develop`, which this shim enables.

The `repro.core.kernels._ckernel` extension (the GIL-releasing kernel
tier: CounterPRF's keyed BLAKE2b subkeys per RFC 7693 and the fused
Philox threshold passes) builds with

    python setup.py build_ext --inplace

and is strictly optional: every caller falls back to the bit-identical
NumPy tier (hashlib subkeys, NumPy Philox) when the extension is missing
(see repro/core/kernels).
"""

import numpy
from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "repro.core.kernels._ckernel",
            sources=["src/repro/core/kernels/_ckernelmodule.c"],
            include_dirs=[numpy.get_include()],
            extra_compile_args=["-O3"],
        )
    ],
)
