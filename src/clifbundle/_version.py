"""The package version, defined once for the package, its reports and its build."""

__version__ = "0.1.0"
