from setuptools import Extension, setup

# The compiled kernels are the hand-written C file src/jumplines/_fastkern.c,
# built with plain setuptools and a C compiler.  The extension is optional:
# without a working compiler the build warns and the pure-Python twins take over.
setup(ext_modules=[Extension("jumplines._fastkern", ["src/jumplines/_fastkern.c"], optional=True)])
