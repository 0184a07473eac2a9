"""Whole-fit benchmark of the FedML reproduction (see README.md)."""
