"""Mobility substrate: terrain geometry and node movement models."""

from repro.mobility.base import MobilityModel
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.subnets import SubnetGrid, SubnetTracker
from repro.mobility.terrain import Point, Terrain
from repro.mobility.trace import MobilityTrace, record_trace
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import Leg, RandomWaypoint

__all__ = [
    "MobilityModel",
    "Point",
    "Terrain",
    "RandomWaypoint",
    "RandomWalk",
    "Leg",
    "Stationary",
    "PiecewiseLinear",
    "SubnetGrid",
    "SubnetTracker",
    "MobilityTrace",
    "record_trace",
]
