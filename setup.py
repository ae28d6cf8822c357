import os

from setuptools import Extension, setup

# The compiled kernels are the hand-written C file src/jumplines/_fastkern.c,
# built with plain setuptools and a C compiler.  The extension is optional:
# without a working compiler the build warns and the pure-Python twins take over.
ext_modules = []
if os.environ.get("JUMPLINES_NO_EXT") != "1":
    ext_modules = [Extension("jumplines._fastkern", ["src/jumplines/_fastkern.c"], optional=True)]

setup(ext_modules=ext_modules)
