"""Flash-crowd detection from access traces and replica/hiring planning."""
