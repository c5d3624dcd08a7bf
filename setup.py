"""Build the optional compiled kernel extension.

The extension is cythonized from `_fastkern.pyx` when Cython is available
and otherwise compiled from the shipped `_fastkern.c`.  The package works
without it (a numpy fallback is selected at import time), so a failed
compile only costs speed, not functionality.
"""

from setuptools import Extension, setup

SOURCE = "src/pairboson/kernels/_fastkern"

ext_modules = []
try:
    import numpy
except ImportError:
    pass
else:
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    ext = Extension(
        "pairboson.kernels._fastkern",
        [SOURCE + (".pyx" if cythonize else ".c")],
        include_dirs=[numpy.get_include()],
        extra_compile_args=["-O3"],
    )
    ext_modules = cythonize([ext], language_level=3) if cythonize else [ext]
    for module in ext_modules:
        module.optional = True      # a failed compile leaves the numpy kernel

setup(ext_modules=ext_modules)
