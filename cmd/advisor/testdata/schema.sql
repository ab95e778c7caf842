-- Two tables for the advisor CLI test: a large order table and a small
-- region table it joins.
CREATE TABLE orders (
	o_id BIGINT,
	o_region INTEGER,
	o_total DOUBLE,
	o_status VARCHAR,
	o_day DATE,
	PRIMARY KEY (o_id)
);
CREATE TABLE region (
	r_id INTEGER,
	r_name VARCHAR,
	PRIMARY KEY (r_id)
);
