"""Test package (unique module names for pytest collection)."""
