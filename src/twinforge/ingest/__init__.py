"""Parsers for recorded system data: process tables, macro scripts, CSV datasets."""

# Read by perfbench/inputs.py; every other name is imported from its module.
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset
