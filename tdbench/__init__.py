"""TDmatch benchmark (see tdbench/README.md)."""
