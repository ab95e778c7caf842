-- A mixed workload: analytic aggregates and a join beside point reads,
-- updates and inserts.
SELECT o_region, SUM(o_total), COUNT(*) FROM orders GROUP BY o_region;
SELECT r_name, SUM(o_total) FROM orders JOIN region ON orders.o_region = region.r_id GROUP BY r_name;
SELECT AVG(o_total) FROM orders WHERE o_day BETWEEN 9000 AND 9100;
SELECT * FROM orders WHERE o_id = 42;
SELECT * FROM orders WHERE o_id = 4242;
UPDATE orders SET o_status = 'SHIPPED' WHERE o_id = 7;
UPDATE orders SET o_status = 'PAID' WHERE o_id = 8;
INSERT INTO orders VALUES (200001, 3, 19.5, 'OPEN', 9500);
INSERT INTO region VALUES (99, 'NEW');
SELECT r_name FROM region WHERE r_id = 3;
