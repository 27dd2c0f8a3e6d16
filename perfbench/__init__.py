"""Serving benchmark of the reachability service (see README.md)."""
