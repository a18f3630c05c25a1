"""Hidden services: identity, descriptors, publication lifecycle."""
