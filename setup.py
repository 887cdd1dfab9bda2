from setuptools import Extension, setup

# kernels.c is a plain C library opened through ctypes, not a Python
# extension module.  optional=True installs the pure-Python kernels alone
# when no C compiler works; -ffp-contract=off keeps every a * b + c unfused,
# so costs stay bit-for-bit equal to the pure kernels on FMA targets;
# -pthread: brute_search's walk runs its two halves on two threads.
setup(
    ext_modules=[
        Extension(
            "spanplan._kernels._ckernels",
            ["src/spanplan/_kernels/kernels.c"],
            extra_compile_args=["-ffp-contract=off", "-pthread"],
            extra_link_args=["-pthread"],
            optional=True,
        )
    ]
)
