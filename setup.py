from setuptools import Extension, setup

# kernels.c is a plain C library opened through ctypes, not a Python
# extension module.  optional=True installs the pure-Python kernels alone
# when no C compiler works; -ffp-contract=off keeps every a * b + c unfused,
# so costs stay bit-for-bit equal to the pure kernels on FMA targets.
setup(
    ext_modules=[
        Extension(
            "spanplan._kernels._ckernels",
            ["src/spanplan/_kernels/kernels.c"],
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ]
)
