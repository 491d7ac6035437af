"""Reference implementations that the tests check hccm against; not part of the package."""
